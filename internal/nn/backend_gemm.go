package nn

import "repro/internal/tensor"

// gemmBackend lowers every conv path to im2col + blocked GEMM
// (conv3d_gemm.go, convtranspose3d_gemm.go) — the default backend. The
// patch matrices are packed straight from the input into the GEMM panels in
// both the forward and the backward-weights pass; no layer keeps them
// between passes. Outputs are bit-for-bit independent
// of the worker budget and match the direct reference within the documented
// ULP bounds. It supports every shape and is the first fallback for
// shape-specialized backends.
type gemmBackend struct{}

func (gemmBackend) Name() string { return "gemm" }

func (gemmBackend) Supports(ConvSpec) bool { return true }

func (gemmBackend) ConvForward(c *Conv3D, x, out *tensor.Tensor) {
	c.forwardGEMMInto(x, out)
}

func (gemmBackend) ConvBackwardWeights(c *Conv3D, gradOut *tensor.Tensor) {
	c.weightGradGEMM(gradOut)
}

func (gemmBackend) ConvBackwardInput(c *Conv3D, gradOut, gradIn *tensor.Tensor) {
	c.inputGradGEMM(gradOut, gradIn)
}

func (gemmBackend) TransposeForward(t *ConvTranspose3D, x, out *tensor.Tensor) {
	t.forwardGEMMInto(x, out)
}

func (gemmBackend) TransposeBackward(t *ConvTranspose3D, gradOut, gradIn *tensor.Tensor) {
	t.backwardGEMMInto(gradOut, gradIn)
}
