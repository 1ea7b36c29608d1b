package nn

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// GEMM backend for Conv3D: the convolution is lowered to matrix multiplies
// against the im2col patch matrix P ([IC·K³, D·H·W]) of each sample,
//
//	forward:          Out[n]  = W·P + b         (W as [OC, IC·K³])
//	backward-weights: gW     += gOut[n]·Pᵀ
//	backward-input:   gP      = Wᵀ·gOut[n],  gIn[n] = col2im(gP)
//
// P is never materialized. Both GEMMs that read it take their B operand as
// a gemm.PackBFunc that streams patches into the packed panels from a
// zero-bordered copy of the input (padVolume, input-sized and pooled for
// the pass): im2colPackB for the forward (training and inference alike)
// and im2colPackBT, its transpose, for backward-weights, which pads the
// input the layer retained at Forward. Every packed element is the same
// input load or padding zero that packing a materialized P would copy, so
// the results are bit-for-bit those of Gemm over P — and a layer holds no
// K³×-activation buffer between forward and backward. A 1×1×1 convolution
// needs no patches at all: the input slab already is P.
//
// Backward-weights runs as per-sample partial products (gemm.GemmBatch,
// parallel over sample × column block) reduced onto gW in ascending sample
// order — the parallel degree scales with the batch size instead of being
// capped by the ⌈IC·K³/256⌉ column blocks of a single product, while each
// gW element still sees a fixed, budget-independent accumulation order.
//
// Scratch buffers and the GEMM packing panels all come from the tensor
// scratch pool and go back to it before each pass returns, so a
// steady-state training step performs no scratch allocations here and
// retains nothing pooled between steps.

// seedBias fills an output slab with the per-channel bias so the GEMM
// accumulates onto it, keeping the bias first in each element's sum like
// the direct kernels do.
func (c *Conv3D) seedBias(oSlab []float32, oc, cols int) {
	bd := c.B.Value.Data()
	for oci := 0; oci < oc; oci++ {
		row := oSlab[oci*cols : (oci+1)*cols]
		bias := bd[oci]
		for i := range row {
			row[i] = bias
		}
	}
}

// forwardGEMMInto runs the GEMM forward kernel into a caller-provided output
// tensor (every element is written: bias seed, then GEMM accumulation),
// retaining nothing. im2col is fused into the GEMM's B-panel packer, so no
// patch matrix is materialized.
func (c *Conv3D) forwardGEMMInto(x, out *tensor.Tensor) {
	n, ic, d, h, w := check5D("Conv3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	k := c.Kernel
	oc := c.OutChannels

	xd := x.Data()
	od := out.Data()
	wd := c.W.Value.Data()

	cols := d * h * w
	kdim := ic * k * k * k
	workers := c.workers

	// The samples run one after another, so one padded slab serves them all.
	var xpad []float32
	var taps []int
	if k > 1 {
		xpad = tensor.GetScratch(ic * (d + k - 1) * (h + k - 1) * (w + k - 1))
		defer tensor.PutScratch(xpad)
		taps = paddedTaps(k, h, w)
	}
	for ni := 0; ni < n; ni++ {
		xSlab := xd[ni*ic*cols : (ni+1)*ic*cols]
		oSlab := od[ni*oc*cols : (ni+1)*oc*cols]
		c.seedBias(oSlab, oc, cols)
		if k == 1 {
			// 1×1×1: the input slab is the patch matrix.
			gemm.Gemm(false, false, oc, cols, kdim, wd, kdim, xSlab, cols, true, oSlab, cols, workers)
			continue
		}
		padVolume(xSlab, ic, d, h, w, k, xpad)
		gemm.GemmPackB(false, oc, cols, kdim, wd, kdim,
			im2colPackB(xpad, d, h, w, k, taps), true, oSlab, cols, workers)
	}
}

// weightGradGEMM is the GEMM kernel-gradient pass: per-sample partials
// gOut[n]·Pᵀ in parallel over (sample × column block), with Pᵀ packed from
// a padded copy of the retained input, then gW += partials in ascending
// sample order per element. Each sample's packer is built once per call,
// so the GEMM work items allocate nothing.
func (c *Conv3D) weightGradGEMM(gradOut *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	k := c.Kernel
	oc := c.OutChannels
	cols := d * h * w
	kdim := ic * k * k * k
	workers := c.workers

	xd := x.Data()
	god := gradOut.Data()
	packs := make([]gemm.PackBFunc, n)
	if k == 1 {
		for ni := range packs {
			packs[ni] = gemm.DensePackB(true, xd[ni*ic*cols:(ni+1)*ic*cols], cols)
		}
	} else {
		// GemmBatch packs every sample concurrently: one padded slab each.
		padLen := ic * (d + k - 1) * (h + k - 1) * (w + k - 1)
		padded := tensor.GetScratch(n * padLen)
		defer tensor.PutScratch(padded)
		taps := paddedTaps(k, h, w)
		for ni := range packs {
			xpad := padded[ni*padLen : (ni+1)*padLen]
			padVolume(xd[ni*ic*cols:(ni+1)*ic*cols], ic, d, h, w, k, xpad)
			packs[ni] = im2colPackBT(xpad, d, h, w, k, taps)
		}
	}
	partials := tensor.GetScratch(n * oc * kdim)
	defer tensor.PutScratch(partials)
	gemm.GemmBatch(n, false, oc, kdim, cols,
		func(ni int) []float32 { return god[ni*oc*cols : (ni+1)*oc*cols] }, cols,
		func(ni int) gemm.PackBFunc { return packs[ni] },
		false,
		func(ni int) []float32 { return partials[ni*oc*kdim : (ni+1)*oc*kdim] }, kdim,
		workers)
	reduceWeightPartials(c.W.Grad.Data(), partials, n, oc*kdim, workers)
}

// inputGradGEMM is the GEMM input-gradient pass: per sample, gP = Wᵀ·gOut[n]
// followed by the col2im scatter-add (the identity at 1×1×1, where gP is
// written straight into the input-gradient slab).
func (c *Conv3D) inputGradGEMM(gradOut, gradIn *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	k := c.Kernel
	p := k / 2
	oc := c.OutChannels
	cols := d * h * w
	kdim := ic * k * k * k
	workers := c.workers

	god := gradOut.Data()
	gid := gradIn.Data()
	wd := c.W.Value.Data()

	var gradP []float32
	if k > 1 {
		gradP = tensor.GetScratch(kdim * cols)
		defer tensor.PutScratch(gradP)
	}
	for ni := 0; ni < n; ni++ {
		gSlab := god[ni*oc*cols : (ni+1)*oc*cols]
		iSlab := gid[ni*ic*cols : (ni+1)*ic*cols]
		gp := gradP
		if k == 1 {
			gp = iSlab
		}
		gemm.Gemm(true, false, kdim, cols, oc, wd, kdim, gSlab, cols, false, gp, cols, workers)
		if k > 1 {
			col2imAdd(gradP, ic, d, h, w, k, p, iSlab, workers)
		}
	}
}

// reduceWeightPartials adds n concatenated per-sample partial gradient
// buffers (elems floats each) onto grad. Each gradient element is owned by
// one worker and receives its partials in ascending sample order, so the
// reduction is bit-for-bit identical at any worker budget.
func reduceWeightPartials(grad, partials []float32, n, elems, workers int) {
	parallel.ForWorkers(workers, elems, 4096, func(lo, hi int) {
		for ni := 0; ni < n; ni++ {
			part := partials[ni*elems : (ni+1)*elems]
			for j := lo; j < hi; j++ {
				grad[j] += part[j]
			}
		}
	})
}
