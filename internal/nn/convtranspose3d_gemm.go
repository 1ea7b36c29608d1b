package nn

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// GEMM backend for ConvTranspose3D: because the kernel edge equals the
// stride, output windows never overlap, so the transposed convolution is
// exactly the mirrored im2col formulation of Conv3D with the roles of the
// patch matrix swapped to the output side. With W as the [IC, OC·K³]
// matrix, x[n] as [IC, D·H·W] and Cols as [OC·K³, D·H·W],
//
//	forward:          Cols    = Wᵀ·x[n],  Out[n] = col2im(Cols) + b
//	backward-weights: gW     += x[n]·Colsᵀ(gOut[n])
//	backward-input:   gIn[n]  = W·Cols(gOut[n])
//
// where Cols(gOut[n]) is the im2col gather of the output gradient. The
// scatter and gather are pure copies (each output voxel belongs to exactly
// one window), parallelized over single-owner output-channel / row
// partitions.

// forwardGEMMInto runs the GEMM forward kernel into a caller-provided output
// tensor (every element is written exactly once by the non-overlapping
// window scatter), retaining nothing — the shared body of the training
// forward and the inference fast path.
func (c *ConvTranspose3D) forwardGEMMInto(x, out *tensor.Tensor) {
	n, ic, d, h, w := check5D("ConvTranspose3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose3D expects %d input channels, got %d", c.InChannels, ic))
	}
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	oc := c.OutChannels

	xd := x.Data()
	outd := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	inCols := d * h * w
	outCh := od * oh * ow
	kk := k * k * k
	rows := oc * kk
	workers := c.workers

	colsBuf := tensor.GetScratch(rows * inCols)
	defer tensor.PutScratch(colsBuf)
	for ni := 0; ni < n; ni++ {
		xSlab := xd[ni*ic*inCols : (ni+1)*ic*inCols]
		// Cols = Wᵀ·x[n]: W is stored [IC, OC·K³] row-major, so op(A)=Aᵀ.
		gemm.Gemm(true, false, rows, inCols, ic, wd, rows, xSlab, inCols, false, colsBuf, inCols, workers)
		// Scatter each (oc, kz, ky, kx) row into its strided output plane;
		// windows do not overlap, so every output voxel is written once.
		oBase := ni * oc * outCh
		parallel.ForWorkers(workers, oc, 1, func(lo, hi int) {
			for oci := lo; oci < hi; oci++ {
				bias := bd[oci]
				for tap := 0; tap < kk; tap++ {
					kx := tap % k
					ky := (tap / k) % k
					kz := tap / (k * k)
					src := colsBuf[(oci*kk+tap)*inCols:]
					for z := 0; z < d; z++ {
						for y := 0; y < h; y++ {
							s := (z*h + y) * w
							drow := outd[oBase+oci*outCh+((z*k+kz)*oh+y*k+ky)*ow+kx:]
							for xx := 0; xx < w; xx++ {
								drow[xx*k] = bias + src[s+xx]
							}
						}
					}
				}
			}
		})
	}
}

// backwardGEMMInto is the fused GEMM kernel- and input-gradient pass (the
// bias pass is engine-invariant and runs in the layer before dispatch): the
// output gradient is gathered into column form once and feeds both the
// batched kernel-gradient product and the per-sample input-gradient GEMMs,
// so the two paths stay fused on one gather.
func (c *ConvTranspose3D) backwardGEMMInto(gradOut, gradIn *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	oc := c.OutChannels

	xd := x.Data()
	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()

	inCols := d * h * w
	outCh := od * oh * ow
	kk := k * k * k
	rows := oc * kk
	workers := c.workers

	// Gather the whole batch's output gradients into column form (inverse
	// of the forward scatter), one owner per (sample, oc, tap) row, so the
	// kernel-gradient pass below can run every sample's product at once.
	gradCols := tensor.GetScratch(n * rows * inCols)
	defer tensor.PutScratch(gradCols)
	parallel.ForWorkers(workers, n*rows, 1, func(lo, hi int) {
		for item := lo; item < hi; item++ {
			ni, r := item/rows, item%rows
			tap := r % kk
			oci := r / kk
			kx := tap % k
			ky := (tap / k) % k
			kz := tap / (k * k)
			oBase := ni * oc * outCh
			dst := gradCols[(ni*rows+r)*inCols:]
			for z := 0; z < d; z++ {
				for y := 0; y < h; y++ {
					s := (z*h + y) * w
					srow := god[oBase+oci*outCh+((z*k+kz)*oh+y*k+ky)*ow+kx:]
					for xx := 0; xx < w; xx++ {
						dst[s+xx] = srow[xx*k]
					}
				}
			}
		}
	})

	// Kernel gradient: per-sample partials x[n]·gradColsᵀ in parallel over
	// (sample × column block), then gW += partials in ascending sample
	// order per element (see conv3d_gemm.go).
	partials := tensor.GetScratch(n * ic * rows)
	defer tensor.PutScratch(partials)
	packs := make([]gemm.PackBFunc, n)
	for ni := range packs {
		packs[ni] = gemm.DensePackB(true, gradCols[ni*rows*inCols:(ni+1)*rows*inCols], inCols)
	}
	gemm.GemmBatch(n, false, ic, rows, inCols,
		func(ni int) []float32 { return xd[ni*ic*inCols : (ni+1)*ic*inCols] }, inCols,
		func(ni int) gemm.PackBFunc { return packs[ni] },
		false,
		func(ni int) []float32 { return partials[ni*ic*rows : (ni+1)*ic*rows] }, rows,
		workers)
	reduceWeightPartials(gwd, partials, n, ic*rows, workers)

	// Input gradient: gIn[n] = W·gradCols.
	for ni := 0; ni < n; ni++ {
		gemm.Gemm(false, false, ic, inCols, rows,
			wd, rows, gradCols[ni*rows*inCols:(ni+1)*rows*inCols], inCols,
			false, gid[ni*ic*inCols:(ni+1)*ic*inCols], inCols, workers)
	}
}

// biasGradPass accumulates the bias gradient — the sum of gradOut per
// output channel, samples in ascending order as in the serial reference —
// with one owner per channel; shared by every backend.
func (c *ConvTranspose3D) biasGradPass(god []float32, n, outCh, workers int) {
	oc := c.OutChannels
	gbd := c.B.Grad.Data()
	parallel.ForWorkers(workers, oc, 1, func(lo, hi int) {
		for oci := lo; oci < hi; oci++ {
			for ni := 0; ni < n; ni++ {
				base := (ni*oc + oci) * outCh
				var acc float32
				for _, g := range god[base : base+outCh] {
					acc += g
				}
				gbd[oci] += acc
			}
		}
	})
}
