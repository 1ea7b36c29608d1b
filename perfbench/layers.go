package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/gemm"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Standalone layer timings: each paper layer shape is built as its own nn
// layer, fed a tensor of the size it sees inside a 16³ input, and timed
// with one compute worker — the budget a tune_experiment trial or a serving
// replica gets on two cores. Each figure is the median of layerReps calls
// after one warm-up call.
const (
	layerEdge       = 16
	layerTrainBatch = 2 // the per-replica training batch
	layerInferBatch = 4 // the serving MaxBatch
	layerReps       = 5
	gemmPeakN       = 256
)

// convLayer is one conv shape of the U-Net, where the network runs it.
type convLayer struct {
	spec    nn.ConvSpec
	inEdge  int // spatial edge of the layer's input
	outEdge int // spatial edge of its output
	calls   int // times one forward pass of the network runs this shape
}

// unetConvs walks cfg's wiring over a cubic input of the given edge, in
// ConvShapes order, with how often each shape runs.
func unetConvs(cfg unet.Config, edge int) ([]convLayer, error) {
	var out []convLayer
	at := map[nn.ConvSpec]int{}
	add := func(s nn.ConvSpec, in, o int) error {
		if i, ok := at[s]; ok {
			if out[i].inEdge != in {
				return fmt.Errorf("shape %v runs at edges %d and %d", s, out[i].inEdge, in)
			}
			out[i].calls++
			return nil
		}
		at[s] = len(out)
		out = append(out, convLayer{spec: s, inEdge: in, outEdge: o, calls: 1})
		return nil
	}
	level := func(s int) int {
		e := edge
		for i := 1; i < s; i++ {
			e /= cfg.UpKernel
		}
		return e
	}
	conv := func(in, o, k, e int) error {
		return add(nn.ConvSpec{Kernel: k, Stride: 1, InC: in, OutC: o}, e, e)
	}
	in := cfg.InChannels
	for s := 1; s <= cfg.Steps; s++ {
		f := cfg.Filters(s)
		if err := conv(in, f, cfg.Kernel, level(s)); err != nil {
			return nil, err
		}
		if err := conv(f, f, cfg.Kernel, level(s)); err != nil {
			return nil, err
		}
		in = f
	}
	for s := cfg.Steps - 1; s >= 1; s-- {
		fBelow, f := cfg.Filters(s+1), cfg.Filters(s)
		up := nn.ConvSpec{Transposed: true, Kernel: cfg.UpKernel, Stride: cfg.UpKernel, InC: fBelow, OutC: fBelow}
		if err := add(up, level(s+1), level(s)); err != nil {
			return nil, err
		}
		if err := conv(fBelow+f, f, cfg.Kernel, level(s)); err != nil {
			return nil, err
		}
		if err := conv(f, f, cfg.Kernel, level(s)); err != nil {
			return nil, err
		}
	}
	if err := conv(cfg.BaseFilters, cfg.OutChannels, 1, level(1)); err != nil {
		return nil, err
	}
	return out, nil
}

// fwdFLOPs is the analytic forward cost of one call on a batch of n:
// two FLOPs per multiply-add, K³ taps per output voxel for a stride-1 conv
// and one tap per output voxel for a stride-K transposed conv.
func (c convLayer) fwdFLOPs(n int) float64 {
	taps := float64(c.spec.Kernel * c.spec.Kernel * c.spec.Kernel)
	if c.spec.Transposed {
		taps = 1
	}
	vox := float64(c.outEdge * c.outEdge * c.outEdge)
	return float64(n) * 2 * taps * float64(c.spec.InC) * float64(c.spec.OutC) * vox
}

// newConv builds a standalone layer of the given shape on one worker.
func newConv(s nn.ConvSpec, rng *rand.Rand) interface {
	nn.Layer
	nn.InferLayer
	nn.CacheDropper
} {
	if s.Transposed {
		l := nn.NewConvTranspose3D("bench", s.InC, s.OutC, s.Kernel, rng)
		l.SetWorkers(1)
		return l
	}
	l := nn.NewConv3D("bench", s.InC, s.OutC, s.Kernel, rng)
	l.SetWorkers(1)
	return l
}

// timeMS returns the median wall time of fn over layerReps calls after one
// warm-up call.
func timeMS(fn func()) float64 {
	fn()
	xs := make([]float64, layerReps)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = ms(time.Since(t))
	}
	return median(xs)
}

// timePair times a forward call and the backward call that must follow it,
// layerReps times after one warm-up pair, and returns the median of each.
func timePair(fwd, bwd func()) (f, b float64) {
	var fs, bs []float64
	for i := 0; i <= layerReps; i++ {
		t := time.Now()
		fwd()
		t1 := time.Now()
		bwd()
		if i > 0 {
			fs = append(fs, ms(t1.Sub(t)))
			bs = append(bs, ms(time.Since(t1)))
		}
	}
	return median(fs), median(bs)
}

// trainLayers times every conv shape's forward and backward pass at the
// training batch, the normalization, activation, pooling and loss work of
// one step, and the gemm peak.
func trainLayers(e *env, l map[string]float64, cfg unet.Config) error {
	convs, err := unetConvs(cfg, layerEdge)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var flops, fwdMS, bwdMS float64
	for _, c := range convs {
		layer := newConv(c.spec, rng)
		x := tensor.Randn(rng, 0, 1, layerTrainBatch, c.spec.InC, c.inEdge, c.inEdge, c.inEdge)
		g := tensor.Randn(rng, 0, 1, layerTrainBatch, c.spec.OutC, c.outEdge, c.outEdge, c.outEdge)
		f, b := timePair(func() { layer.Forward(x) }, func() { layer.Backward(g) })
		layer.DropCaches()
		l[convMetricName(c.spec, "fwd")] = f
		l[convMetricName(c.spec, "bwd")] = b
		flops += float64(c.calls) * c.fwdFLOPs(layerTrainBatch)
		fwdMS += float64(c.calls) * f
		bwdMS += float64(c.calls) * b
	}
	l["nn.conv.fwd_gflops"] = flops / fwdMS / 1e6
	l["nn.conv.bwd_gflops"] = 2 * flops / bwdMS / 1e6 // input and weight gradients

	// Batch norm + ReLU follow every body conv; pooling ends every encoder
	// step but the deepest.
	var naF, naB, poolF, poolB float64
	for _, c := range convs {
		if c.spec.Transposed || c.spec.Kernel != cfg.Kernel {
			continue
		}
		bn, relu := nn.NewBatchNorm("bench", c.spec.OutC), nn.NewReLU()
		bn.SetWorkers(1)
		relu.SetWorkers(1)
		x := tensor.Randn(rng, 0, 1, layerTrainBatch, c.spec.OutC, c.outEdge, c.outEdge, c.outEdge)
		f, b := timePair(func() { relu.Forward(bn.Forward(x)) }, func() { bn.Backward(relu.Backward(x)) })
		naF += float64(c.calls) * f
		naB += float64(c.calls) * b
	}
	for s := 1; s < cfg.Steps; s++ {
		in, out := layerEdge>>(s-1), layerEdge>>s
		pool := nn.NewMaxPool3D(cfg.UpKernel)
		pool.SetWorkers(1)
		x := tensor.Randn(rng, 0, 1, layerTrainBatch, cfg.Filters(s), in, in, in)
		g := tensor.Randn(rng, 0, 1, layerTrainBatch, cfg.Filters(s), out, out, out)
		f, b := timePair(func() { pool.Forward(x) }, func() { pool.Backward(g) })
		poolF += f
		poolB += b
	}
	l["nn.norm_act.fwd_ms"], l["nn.norm_act.bwd_ms"] = naF, naB
	l["nn.pool.fwd_ms"], l["nn.pool.bwd_ms"] = poolF, poolB

	lossFn, err := loss.ByName("dice")
	if err != nil {
		return err
	}
	pred := tensor.Uniform(rng, 0, 1, layerTrainBatch, cfg.OutChannels, layerEdge, layerEdge, layerEdge)
	mask := tensor.Uniform(rng, 0, 1, layerTrainBatch, cfg.OutChannels, layerEdge, layerEdge, layerEdge)
	mask.Apply(func(v float32) float32 {
		if v < 0.2 {
			return 1
		}
		return 0
	})
	l["loss.eval_ms"] = timeMS(func() { lossFn.Eval(pred, mask) })
	l["gemm.peak_gflops"] = gemmPeak(rng)
	return nil
}

// inferLayers times every conv shape's inference fast path at the serving
// batch, and the gemm peak.
func inferLayers(e *env, l map[string]float64, cfg unet.Config) error {
	convs, err := unetConvs(cfg, layerEdge)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var flops, inferMS float64
	for _, c := range convs {
		layer := newConv(c.spec, rng)
		x := tensor.Randn(rng, 0, 1, layerInferBatch, c.spec.InC, c.inEdge, c.inEdge, c.inEdge)
		t := timeMS(func() { tensor.Recycle(layer.Infer(x)) })
		l[convMetricName(c.spec, "infer")] = t
		flops += float64(c.calls) * c.fwdFLOPs(layerInferBatch)
		inferMS += float64(c.calls) * t
	}
	l["nn.conv.infer_gflops"] = flops / inferMS / 1e6
	l["gemm.peak_gflops"] = gemmPeak(rng)
	return nil
}

// gemmPeak measures gemm.Gemm on a square problem with one worker, the
// denominator for the conv GFLOP/s figures.
func gemmPeak(rng *rand.Rand) float64 {
	n := gemmPeakN
	a := tensor.Randn(rng, 0, 1, n, n).Data()
	b := tensor.Randn(rng, 0, 1, n, n).Data()
	c := make([]float32, n*n)
	t := timeMS(func() { gemm.Gemm(false, false, n, n, n, a, n, b, n, false, c, n, 1) })
	return 2 * float64(n*n*n) / t / 1e6
}
