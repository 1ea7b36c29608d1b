// Package nn implements the 3D convolutional neural-network layers needed by
// the paper's 3D U-Net: Conv3D, ConvTranspose3D, MaxPool3D, BatchNorm, ReLU
// and Sigmoid, each with a full backward pass.
//
// Activations are 5-D tensors laid out channels-first as [N, C, D, H, W],
// matching the paper's "Channels First" data format. Layers cache whatever
// they need during Forward so that Backward can be called immediately after
// with the gradient of the loss w.r.t. the layer output.
//
// The convolution layers compute through the conv-backend registry (see
// backend.go): backends register under a name (Register), dispatch is per
// layer shape with a guaranteed requested → gemm → direct fallback chain,
// and the ConvEngine type, ParseConvEngine and REPRO_CONV_ENGINE are thin
// views over the registry. internal/nn/generated registers the
// shape-specialized kernels emitted by cmd/kernelgen.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter: its value and the gradient accumulated by
// the most recent backward pass.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable computation. Forward must be called before
// Backward; Backward receives dL/d(output) and returns dL/d(input).
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Trainable is implemented by layers that behave differently in training and
// evaluation mode (e.g. BatchNorm).
type Trainable interface {
	SetTraining(training bool)
}

// WorkerSetter is implemented by layers whose kernels run on the parallel
// worker pool and accept a per-layer budget override. A budget of 0 (the
// zero value of every layer) means the package-wide parallel default.
type WorkerSetter interface {
	SetWorkers(workers int)
}

// workerBudget is embedded by compute layers to carry the per-layer worker
// budget. Kernels resolve it through parallel.Resolve at call time, so a
// zero budget tracks the global default dynamically.
type workerBudget struct {
	workers int
}

// SetWorkers sets the layer's worker budget; 0 restores the global default.
func (w *workerBudget) SetWorkers(workers int) { w.workers = workers }

// Workers returns the layer's raw worker budget (0 = global default) —
// external conv backends pass it to parallel.ForWorkers exactly as the
// built-in kernels do.
func (w *workerBudget) Workers() int { return w.workers }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs x through every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates gradOut through the layers in reverse order.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params returns the parameters of all layers in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SetTraining forwards the training flag to every trainable layer.
func (s *Sequential) SetTraining(training bool) {
	for _, l := range s.Layers {
		if t, ok := l.(Trainable); ok {
			t.SetTraining(training)
		}
	}
}

// SetWorkers forwards the worker budget to every parallel-capable layer.
func (s *Sequential) SetWorkers(workers int) {
	for _, l := range s.Layers {
		if w, ok := l.(WorkerSetter); ok {
			w.SetWorkers(workers)
		}
	}
}

// AuxStater is implemented by layers (and layer containers) carrying
// trained non-parameter state — e.g. BatchNorm running statistics — that a
// checkpoint must capture for evaluation-mode forwards to reproduce. The
// returned slices alias the live state; loaders write into them in place.
type AuxStater interface {
	AuxState() map[string][]float64
}

// AuxState merges the auxiliary state of every stateful layer.
func (s *Sequential) AuxState() map[string][]float64 {
	out := map[string][]float64{}
	for _, l := range s.Layers {
		if a, ok := l.(AuxStater); ok {
			for k, v := range a.AuxState() {
				out[k] = v
			}
		}
	}
	return out
}

// CacheDropper is implemented by layers that retain references between
// steps — the inputs cached for Backward. DropCaches drops them for the GC;
// no layer holds a pooled scratch buffer between steps, so nothing returns
// to the pool. Calling it between an optimizer step and the next forward is
// always safe; calling it between Forward and Backward is not.
type CacheDropper interface {
	DropCaches()
}

// DropCaches releases the retained caches of every cache-holding layer —
// the memory-pressure hook long-lived trainers fire between the training
// and evaluation phases of an epoch.
func (s *Sequential) DropCaches() {
	for _, l := range s.Layers {
		if c, ok := l.(CacheDropper); ok {
			c.DropCaches()
		}
	}
}

// SetConvEngine forwards the convolution-engine choice to every layer with
// switchable kernels.
func (s *Sequential) SetConvEngine(e ConvEngine) {
	for _, l := range s.Layers {
		if c, ok := l.(ConvEngineSetter); ok {
			c.SetConvEngine(e)
		}
	}
}

// ParamCount sums the element counts of the given parameters.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// ZeroGrads clears the gradients of all given parameters.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

func check5D(op string, t *tensor.Tensor) (n, c, d, h, w int) {
	s := t.Shape()
	if len(s) != 5 {
		panic(fmt.Sprintf("nn: %s expects a 5-D [N,C,D,H,W] tensor, got shape %v", op, s))
	}
	return s[0], s[1], s[2], s[3], s[4]
}
