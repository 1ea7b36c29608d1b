// Package unet builds the paper's 3D U-Net: an analysis (encoder) and a
// synthesis (decoder) path with four resolution steps, 8·2^(s−1) filters at
// step s, two 3x3x3 convolutions per step each followed by batch
// normalization and ReLU, 2x2x2 max pooling between encoder steps, 2x2x2
// stride-2 transposed convolutions and skip concatenations in the decoder,
// and a 1x1x1 convolution + sigmoid head producing one output channel.
//
// The decoder wiring is under-specified in the paper (it reports 406,793
// total parameters); this implementation keeps the transposed convolution at
// the incoming channel width and reduces after the skip concatenation, which
// yields 409,657 parameters for the paper configuration — within 0.7% and
// with the identical filter progression. The builder is fully configurable
// so alternative wirings can be expressed.
package unet

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"

	// Register the "generated" conv backend: importing unet is how every
	// binary that builds the paper network gets the shape-specialized
	// kernels emitted by cmd/kernelgen into nn's backend registry.
	_ "repro/internal/nn/generated"
	"repro/internal/tensor"
)

// Config describes a U-Net instance.
type Config struct {
	InChannels  int // input modalities (paper: 4 — FLAIR, T1w, T1gd, T2w)
	OutChannels int // output labels (paper: 1, whole tumour vs background)
	BaseFilters int // filters at the first resolution step (paper: 8)
	Steps       int // resolution steps in each path (paper: 4)
	Kernel      int // body convolution kernel (paper: 3)
	UpKernel    int // transposed-convolution kernel == stride (paper: 2)
	Seed        int64

	// Workers is the per-network worker budget for the parallel compute
	// kernels; 0 means the parallel package default (all cores). Training
	// layers that run several networks concurrently (mirrored replicas,
	// experiment-parallel trials) lower it so the machine is divided, not
	// oversubscribed.
	Workers int

	// Engine selects the convolution compute engine for every Conv3D and
	// ConvTranspose3D in the network; the zero value (nn.EngineAuto)
	// follows the process default (REPRO_CONV_ENGINE, gemm when unset).
	Engine nn.ConvEngine
}

// PaperConfig returns the configuration used in the paper's benchmark.
func PaperConfig() Config {
	return Config{
		InChannels:  4,
		OutChannels: 1,
		BaseFilters: 8,
		Steps:       4,
		Kernel:      3,
		UpKernel:    2,
		Seed:        1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.InChannels <= 0:
		return fmt.Errorf("unet: InChannels must be positive, got %d", c.InChannels)
	case c.OutChannels <= 0:
		return fmt.Errorf("unet: OutChannels must be positive, got %d", c.OutChannels)
	case c.BaseFilters <= 0:
		return fmt.Errorf("unet: BaseFilters must be positive, got %d", c.BaseFilters)
	case c.Steps < 2:
		return fmt.Errorf("unet: Steps must be at least 2, got %d", c.Steps)
	case c.Kernel%2 == 0 || c.Kernel <= 0:
		return fmt.Errorf("unet: Kernel must be odd and positive, got %d", c.Kernel)
	case c.UpKernel < 2:
		return fmt.Errorf("unet: UpKernel must be at least 2, got %d", c.UpKernel)
	}
	return nil
}

// Filters returns the filter count at resolution step s (1-based).
func (c Config) Filters(s int) int { return c.BaseFilters << (s - 1) }

// MinVolume returns the minimum spatial extent divisor: inputs must have
// every spatial dimension divisible by UpKernel^(Steps-1).
func (c Config) MinVolume() int {
	v := 1
	for i := 1; i < c.Steps; i++ {
		v *= c.UpKernel
	}
	return v
}

// ConvShapes returns the distinct convolution-layer shapes of the network in
// wiring order: the encoder body convolutions, the decoder up-convolutions
// and reductions, and the head. This is the fixed shape table cmd/kernelgen
// generates specialized kernels from — the paper's premise is that the
// workload's layer shapes are known at build time.
func (c Config) ConvShapes() []nn.ConvSpec {
	var specs []nn.ConvSpec
	seen := map[nn.ConvSpec]bool{}
	add := func(s nn.ConvSpec) {
		if !seen[s] {
			seen[s] = true
			specs = append(specs, s)
		}
	}
	conv := func(inC, outC, k int) {
		add(nn.ConvSpec{Kernel: k, Stride: 1, InC: inC, OutC: outC})
	}
	in := c.InChannels
	for s := 1; s <= c.Steps; s++ {
		f := c.Filters(s)
		conv(in, f, c.Kernel)
		conv(f, f, c.Kernel)
		in = f
	}
	for s := c.Steps - 1; s >= 1; s-- {
		fBelow := c.Filters(s + 1)
		f := c.Filters(s)
		add(nn.ConvSpec{Transposed: true, Kernel: c.UpKernel, Stride: c.UpKernel, InC: fBelow, OutC: fBelow})
		conv(fBelow+f, f, c.Kernel)
		conv(f, f, c.Kernel)
	}
	conv(c.BaseFilters, c.OutChannels, 1)
	return specs
}

// encStep is one encoder resolution step.
type encStep struct {
	convA *nn.Conv3D
	bnA   *nn.BatchNorm
	reluA *nn.ReLU
	convB *nn.Conv3D
	bnB   *nn.BatchNorm
	reluB *nn.ReLU
	pool  *nn.MaxPool3D // nil at the deepest step
}

// decStep is one decoder resolution step.
type decStep struct {
	up    *nn.ConvTranspose3D
	convA *nn.Conv3D
	bnA   *nn.BatchNorm
	reluA *nn.ReLU
	convB *nn.Conv3D
	bnB   *nn.BatchNorm
	reluB *nn.ReLU

	upChannels   int // channels arriving from below
	skipChannels int // channels of the encoder skip
}

// UNet is the full network.
type UNet struct {
	Cfg  Config
	enc  []*encStep
	dec  []*decStep // dec[i] corresponds to resolution step Steps-1-i
	head *nn.Conv3D
	act  *nn.Sigmoid

	params []*nn.Param
	skips  []*tensor.Tensor // cached encoder outputs for backward

	// Per-group parameter slices in gradient completion order (head, then
	// decoder steps deep→shallow, then encoder steps deep→shallow), built
	// once at construction for the grad sink.
	headParams []*nn.Param
	decParams  [][]*nn.Param
	encParams  [][]*nn.Param
	gradSink   func(group []*nn.Param) // nil = no streaming
}

// New builds a U-Net from cfg.
func New(cfg Config) (*UNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &UNet{Cfg: cfg}

	in := cfg.InChannels
	for s := 1; s <= cfg.Steps; s++ {
		f := cfg.Filters(s)
		e := &encStep{
			convA: nn.NewConv3D(fmt.Sprintf("enc%d.a", s), in, f, cfg.Kernel, rng),
			bnA:   nn.NewBatchNorm(fmt.Sprintf("enc%d.a", s), f),
			reluA: nn.NewReLU(),
			convB: nn.NewConv3D(fmt.Sprintf("enc%d.b", s), f, f, cfg.Kernel, rng),
			bnB:   nn.NewBatchNorm(fmt.Sprintf("enc%d.b", s), f),
			reluB: nn.NewReLU(),
		}
		if s < cfg.Steps {
			e.pool = nn.NewMaxPool3D(cfg.UpKernel)
		}
		u.enc = append(u.enc, e)
		in = f
	}

	for s := cfg.Steps - 1; s >= 1; s-- {
		fBelow := cfg.Filters(s + 1)
		f := cfg.Filters(s)
		d := &decStep{
			up:           nn.NewConvTranspose3D(fmt.Sprintf("dec%d.up", s), fBelow, fBelow, cfg.UpKernel, rng),
			convA:        nn.NewConv3D(fmt.Sprintf("dec%d.a", s), fBelow+f, f, cfg.Kernel, rng),
			bnA:          nn.NewBatchNorm(fmt.Sprintf("dec%d.a", s), f),
			reluA:        nn.NewReLU(),
			convB:        nn.NewConv3D(fmt.Sprintf("dec%d.b", s), f, f, cfg.Kernel, rng),
			bnB:          nn.NewBatchNorm(fmt.Sprintf("dec%d.b", s), f),
			reluB:        nn.NewReLU(),
			upChannels:   fBelow,
			skipChannels: f,
		}
		u.dec = append(u.dec, d)
	}

	u.head = nn.NewConv3D("head", cfg.BaseFilters, cfg.OutChannels, 1, rng)
	u.act = nn.NewSigmoid()
	u.SetWorkers(cfg.Workers)
	u.SetConvEngine(cfg.Engine)

	for _, e := range u.enc {
		var g []*nn.Param
		g = append(g, e.convA.Params()...)
		g = append(g, e.bnA.Params()...)
		g = append(g, e.convB.Params()...)
		g = append(g, e.bnB.Params()...)
		u.encParams = append(u.encParams, g)
		u.params = append(u.params, g...)
	}
	for _, d := range u.dec {
		var g []*nn.Param
		g = append(g, d.up.Params()...)
		g = append(g, d.convA.Params()...)
		g = append(g, d.bnA.Params()...)
		g = append(g, d.convB.Params()...)
		g = append(g, d.bnB.Params()...)
		u.decParams = append(u.decParams, g)
		u.params = append(u.params, g...)
	}
	u.headParams = u.head.Params()
	u.params = append(u.params, u.headParams...)
	return u, nil
}

// SetGradSink installs fn, which Backward then calls once per layer group —
// head, each decoder step (deepest first), each encoder step (deepest
// first) — at the moment that group's parameter gradients are final. The
// groups partition Params() and the call order is a pure function of the
// architecture, so every data-parallel rank streams identical buckets in
// identical order. fn runs on the goroutine calling Backward; nil restores
// non-streaming backward. After a sink call Backward never touches that
// group's gradients again, so fn may hand them to a concurrent reducer.
func (u *UNet) SetGradSink(fn func(group []*nn.Param)) { u.gradSink = fn }

// MustNew builds a U-Net and panics on configuration errors; convenient for
// examples and benchmarks using known-good configs.
func MustNew(cfg Config) *UNet {
	u, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Params returns all trainable parameters.
func (u *UNet) Params() []*nn.Param { return u.params }

// ParamCount returns the total number of trainable scalar parameters.
func (u *UNet) ParamCount() int { return nn.ParamCount(u.params) }

// SetWorkers sets the worker budget on every compute layer; 0 restores the
// parallel package default.
func (u *UNet) SetWorkers(workers int) {
	u.Cfg.Workers = workers
	for _, e := range u.enc {
		e.convA.SetWorkers(workers)
		e.bnA.SetWorkers(workers)
		e.reluA.SetWorkers(workers)
		e.convB.SetWorkers(workers)
		e.bnB.SetWorkers(workers)
		e.reluB.SetWorkers(workers)
		if e.pool != nil {
			e.pool.SetWorkers(workers)
		}
	}
	for _, d := range u.dec {
		d.up.SetWorkers(workers)
		d.convA.SetWorkers(workers)
		d.bnA.SetWorkers(workers)
		d.reluA.SetWorkers(workers)
		d.convB.SetWorkers(workers)
		d.bnB.SetWorkers(workers)
		d.reluB.SetWorkers(workers)
	}
	u.head.SetWorkers(workers)
	u.act.SetWorkers(workers)
}

// SetConvEngine sets the convolution engine on every Conv3D and
// ConvTranspose3D layer; nn.EngineAuto restores the process default.
func (u *UNet) SetConvEngine(e nn.ConvEngine) {
	u.Cfg.Engine = e
	for _, enc := range u.enc {
		enc.convA.SetConvEngine(e)
		enc.convB.SetConvEngine(e)
	}
	for _, d := range u.dec {
		d.up.SetConvEngine(e)
		d.convA.SetConvEngine(e)
		d.convB.SetConvEngine(e)
	}
	u.head.SetConvEngine(e)
}

// SetTraining toggles every batch-norm layer between batch statistics
// (training) and running statistics (evaluation). The convolutions have no
// mode: their forward is the same call either way.
func (u *UNet) SetTraining(training bool) {
	for _, e := range u.enc {
		e.bnA.SetTraining(training)
		e.bnB.SetTraining(training)
	}
	for _, d := range u.dec {
		d.bnA.SetTraining(training)
		d.bnB.SetTraining(training)
	}
}

// ZeroGrads clears all parameter gradients.
func (u *UNet) ZeroGrads() { nn.ZeroGrads(u.params) }

// DropCaches releases every retained inter-step reference: the
// convolutions' cached inputs and the skip activations, so the last
// training batch's activations can be collected before an evaluation
// phase (train.CacheRelease calls it between the training and evaluation
// phases). No layer holds a pooled buffer between steps, so nothing goes
// back to the scratch pool here. Calling it between Forward and Backward
// is invalid, as for nn.CacheDropper.
func (u *UNet) DropCaches() {
	for _, e := range u.enc {
		e.convA.DropCaches()
		e.convB.DropCaches()
	}
	for _, d := range u.dec {
		d.up.DropCaches()
		d.convA.DropCaches()
		d.convB.DropCaches()
	}
	u.head.DropCaches()
	for i := range u.skips {
		u.skips[i] = nil
	}
	u.skips = u.skips[:0]
}

// AuxState merges the batch-norm running statistics of every normalization
// layer — the trained non-parameter state a checkpoint must capture for
// evaluation-mode forwards to reproduce. The slices alias the live state.
func (u *UNet) AuxState() map[string][]float64 {
	out := map[string][]float64{}
	merge := func(a nn.AuxStater) {
		for k, v := range a.AuxState() {
			out[k] = v
		}
	}
	for _, e := range u.enc {
		merge(e.bnA)
		merge(e.bnB)
	}
	for _, d := range u.dec {
		merge(d.bnA)
		merge(d.bnB)
	}
	return out
}

// Forward computes per-voxel probabilities for x ([N, InC, D, H, W]).
// Spatial dimensions must be divisible by MinVolume().
func (u *UNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	if len(s) != 5 {
		panic(fmt.Sprintf("unet: Forward expects [N,C,D,H,W], got %v", s))
	}
	mv := u.Cfg.MinVolume()
	for _, d := range s[2:] {
		if d%mv != 0 {
			panic(fmt.Sprintf("unet: spatial dims %v must be divisible by %d", s[2:], mv))
		}
	}
	u.skips = u.skips[:0]
	h := x
	for i, e := range u.enc {
		h = e.reluA.Forward(e.bnA.Forward(e.convA.Forward(h)))
		h = e.reluB.Forward(e.bnB.Forward(e.convB.Forward(h)))
		if i < len(u.enc)-1 {
			u.skips = append(u.skips, h)
			h = e.pool.Forward(h)
		}
	}
	for i, d := range u.dec {
		up := d.up.Forward(h)
		skip := u.skips[len(u.skips)-1-i]
		h = nn.ConcatChannels(up, skip)
		h = d.reluA.Forward(d.bnA.Forward(d.convA.Forward(h)))
		h = d.reluB.Forward(d.bnB.Forward(d.convB.Forward(h)))
	}
	return u.act.Forward(u.head.Forward(h))
}

// Infer computes per-voxel probabilities like an evaluation-mode Forward —
// bit-for-bit identically, the kernels are shared — but through the layers'
// forward-only fast path: every activation comes from the tensor scratch
// pool and is recycled the moment its consumer has run, no backward caches
// are retained, and batch normalization always uses the running statistics.
// After warm-up a steady-state Infer performs zero fresh scratch
// allocations (TestInferScratchSteadyState).
//
// The returned tensor is pool-backed; the caller may tensor.Recycle it once
// the prediction has been consumed. Calling Backward after Infer is invalid.
func (u *UNet) Infer(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	if len(s) != 5 {
		panic(fmt.Sprintf("unet: Infer expects [N,C,D,H,W], got %v", s))
	}
	mv := u.Cfg.MinVolume()
	for _, d := range s[2:] {
		if d%mv != 0 {
			panic(fmt.Sprintf("unet: spatial dims %v must be divisible by %d", s[2:], mv))
		}
	}
	// recycle returns an intermediate to the pool unless it is the caller's
	// input, which the fast path never owns.
	recycle := func(t *tensor.Tensor) {
		if t != x {
			tensor.Recycle(t)
		}
	}
	skips := make([]*tensor.Tensor, 0, len(u.enc)-1)
	h := x
	for i, e := range u.enc {
		t := e.convA.Infer(h)
		recycle(h)
		h = e.bnA.Infer(t)
		tensor.Recycle(t)
		t = e.reluA.Infer(h)
		tensor.Recycle(h)
		h = e.convB.Infer(t)
		tensor.Recycle(t)
		t = e.bnB.Infer(h)
		tensor.Recycle(h)
		h = e.reluB.Infer(t)
		tensor.Recycle(t)
		if i < len(u.enc)-1 {
			skips = append(skips, h)
			h = e.pool.Infer(h) // the skip stays alive for the decoder
		}
	}
	for i, d := range u.dec {
		up := d.up.Infer(h)
		recycle(h)
		skip := skips[len(skips)-1-i]
		h = nn.ConcatChannelsScratch(up, skip)
		tensor.Recycle(up)
		tensor.Recycle(skip)
		t := d.convA.Infer(h)
		tensor.Recycle(h)
		h = d.bnA.Infer(t)
		tensor.Recycle(t)
		t = d.reluA.Infer(h)
		tensor.Recycle(h)
		h = d.convB.Infer(t)
		tensor.Recycle(t)
		t = d.bnB.Infer(h)
		tensor.Recycle(h)
		h = d.reluB.Infer(t)
		tensor.Recycle(t)
	}
	t := u.head.Infer(h)
	recycle(h)
	out := u.act.Infer(t)
	tensor.Recycle(t)
	return out
}

// Backward propagates dL/d(output) through the network, accumulating
// parameter gradients, and returns dL/d(input).
func (u *UNet) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := u.head.Backward(u.act.Backward(gradOut))
	if u.gradSink != nil {
		u.gradSink(u.headParams)
	}

	// Gradients flowing into each encoder skip, indexed like u.skips.
	skipGrads := make([]*tensor.Tensor, len(u.skips))

	for i := len(u.dec) - 1; i >= 0; i-- {
		d := u.dec[i]
		g = d.convA.Backward(d.bnA.Backward(d.reluA.Backward(
			d.convB.Backward(d.bnB.Backward(d.reluB.Backward(g))))))
		gUp, gSkip := nn.SplitChannelsGrad(g, d.upChannels, d.skipChannels)
		skipGrads[len(u.skips)-1-i] = gSkip
		g = d.up.Backward(gUp)
		if u.gradSink != nil {
			u.gradSink(u.decParams[i])
		}
	}

	for i := len(u.enc) - 1; i >= 0; i-- {
		e := u.enc[i]
		if i < len(u.enc)-1 {
			g = e.pool.Backward(g)
			g.Accumulate(skipGrads[i])
		}
		g = e.convB.Backward(e.bnB.Backward(e.reluB.Backward(g)))
		g = e.convA.Backward(e.bnA.Backward(e.reluA.Backward(g)))
		if u.gradSink != nil {
			u.gradSink(u.encParams[i])
		}
	}
	return g
}
