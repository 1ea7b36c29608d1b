package nn

import (
	"repro/internal/gemm"
	"repro/internal/parallel"
)

// im2col / col2im lowering for the GEMM convolution engine.
//
// For a stride-1, same-padded cubic convolution the patch matrix P has one
// row per (input-channel, kz, ky, kx) kernel tap and one column per output
// voxel (z, y, x) in scan order: P[r, c] is the input value that tap r reads
// when producing voxel c, or 0 where the tap falls in the zero padding.
// On a copy of the input inside a zero border of k/2 (padVolume), that is
// a plain load at the tap's offset plus the voxel's offset — no bounds
// tests — and a run of voxels along one x-row is a run of consecutive
// loads.
//
// P is never stored: im2colPackB (forward, B = P) and im2colPackBT
// (backward-weights, B = Pᵀ) write its blocks from the padded input
// straight into the GEMM's packed panels, so their parallelism and
// accumulation order are the GEMM's. The padded copy is input-sized, not
// K³× the input, and goes back to the scratch pool when the pass ends. The
// col2im scatter-add is parallelized over input channels with a fixed
// traversal order, so it is bit-for-bit independent of the worker budget,
// matching the determinism contract of internal/gemm.

// padVolume copies one sample's input slab x ([ic, d, h, w] row-major) into
// dst ([ic, d+k-1, h+k-1, w+k-1]) inside a zero border of k/2.
func padVolume(x []float32, ic, d, h, w, k int, dst []float32) {
	p := k / 2
	rw, ph, pd := w+k-1, h+k-1, d+k-1
	clear(dst[:ic*pd*ph*rw])
	for ci := 0; ci < ic; ci++ {
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				copy(dst[((ci*pd+z+p)*ph+y+p)*rw+p:], x[((ci*d+z)*h+y)*w:][:w])
			}
		}
	}
}

// paddedTaps returns, for every kernel tap (kz, ky, kx) in patch-row order
// r % k³, its offset kz·(h+k-1)·(w+k-1) + ky·(w+k-1) + kx inside one
// channel of a padded slab. Adding a voxel's own padded offset
// z·(h+k-1)·(w+k-1) + y·(w+k-1) + x gives the address of P[tap, voxel].
func paddedTaps(k, h, w int) []int {
	rw := w + k - 1
	plane := (h + k - 1) * rw
	offs := make([]int, 0, k*k*k)
	for kz := 0; kz < k; kz++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				offs = append(offs, kz*plane+ky*rw+kx)
			}
		}
	}
	return offs
}

// The packers write the PanelCols elements of a panel row as four explicit
// loads.
var _ [gemm.PanelCols - 4]struct{}
var _ [4 - gemm.PanelCols]struct{}

// im2colPackB returns a gemm.PackBFunc that packs blocks of the patch
// matrix P of one sample from its padded input slab xpad — the B operand
// of the forward product W·P. The patch matrix never exists in memory, but
// every packed element is the same input load (or padding zero) that packB
// would copy out of a materialized P, so GemmPackB over this function is
// bit-for-bit identical to Gemm over the matrix. taps must be
// paddedTaps(k, h, w).
func im2colPackB(xpad []float32, d, h, w, k int, taps []int) gemm.PackBFunc {
	kk := k * k * k
	rw := w + k - 1
	plane := (h + k - 1) * rw
	vol := (d + k - 1) * plane
	const nr = gemm.PanelCols
	return func(p0, pw, j0, jw int, dst []float32) {
		for jp := 0; jp*nr < jw; jp++ {
			out := dst[jp*pw*nr : (jp+1)*pw*nr]
			cols := min(nr, jw-jp*nr)
			// vox[jj] is the padded offset of the panel's column jj, an
			// output voxel. Columns past jw re-read the last voxel and are
			// zeroed after the walk.
			var vox [nr]int
			for jj := range vox {
				cv := j0 + jp*nr + min(jj, cols-1)
				vox[jj] = cv/(w*h)*plane + cv/w%h*rw + cv%w
			}
			tap := p0 % kk
			base := p0 / kk * vol // channel volume of row p0
			for pp := 0; pp < pw; pp++ {
				src := xpad[base+taps[tap]:]
				q := out[pp*nr : pp*nr+nr : pp*nr+nr]
				q[0], q[1], q[2], q[3] = src[vox[0]], src[vox[1]], src[vox[2]], src[vox[3]]
				if tap++; tap == kk {
					tap = 0
					base += vol
				}
			}
			zeroPanelCols(out, cols)
		}
	}
}

// im2colPackBT returns a gemm.PackBFunc that packs blocks of the
// transposed patch matrix Pᵀ ([d·h·w, ic·k³]: one row per output voxel,
// one column per kernel tap) of one sample from its padded input slab xpad
// — the B operand of the backward-weights product gOut·Pᵀ. As with
// im2colPackB, every packed element is the input load or padding zero that
// packB would copy out of a materialized Pᵀ, so GemmBatch over this
// function is bit-for-bit identical to Gemm over the matrix. taps must be
// paddedTaps(k, h, w).
func im2colPackBT(xpad []float32, d, h, w, k int, taps []int) gemm.PackBFunc {
	kk := k * k * k
	rw := w + k - 1
	plane := (h + k - 1) * rw
	vol := (d + k - 1) * plane
	const nr = gemm.PanelCols
	return func(p0, pw, j0, jw int, dst []float32) {
		// The K slice is the voxel range [p0, p0+pw), which may start and
		// end mid-row: walk it one x-row run at a time from its first voxel.
		x0, y0, z0 := p0%w, p0/w%h, p0/(w*h)
		for jp := 0; jp*nr < jw; jp++ {
			out := dst[jp*pw*nr : (jp+1)*pw*nr]
			cols := min(nr, jw-jp*nr)
			// off[jj] is the padded offset of the panel's column jj, a
			// kernel tap, at voxel (0, 0, 0). Columns past jw re-read the
			// last tap and are zeroed after the walk.
			var off [nr]int
			for jj := range off {
				r := j0 + jp*nr + min(jj, cols-1)
				off[jj] = r/kk*vol + taps[r%kk]
			}
			o := 0
			cz, cy, cx := z0, y0, x0
			for left := pw; left > 0; {
				run := min(w-cx, left)
				v := cz*plane + cy*rw + cx
				a := xpad[off[0]+v:][:run]
				b := xpad[off[1]+v:][:run]
				c := xpad[off[2]+v:][:run]
				e := xpad[off[3]+v:][:run]
				for t := range a {
					q := out[o : o+nr : o+nr]
					q[0], q[1], q[2], q[3] = a[t], b[t], c[t], e[t]
					o += nr
				}
				left -= run
				cx = 0
				if cy++; cy == h {
					cy = 0
					cz++
				}
			}
			zeroPanelCols(out, cols)
		}
	}
}

// zeroPanelCols zeroes the columns [cols, PanelCols) of a packed panel —
// the padding past the last column of B.
func zeroPanelCols(out []float32, cols int) {
	for jj := cols; jj < gemm.PanelCols; jj++ {
		for o := jj; o < len(out); o += gemm.PanelCols {
			out[o] = 0
		}
	}
}

// tapXRange returns the output x-range [x0, x1) for which a tap offset by
// dx stays inside a row of width w (0 <= xx+dx < w), clamped to [0, w] with
// x1 >= x0 — for half-widths larger than the volume (e.g. a 5³ kernel on a
// width-1 row) some taps have an empty range.
func tapXRange(dx, w int) (x0, x1 int) {
	x0, x1 = 0, w
	if dx > 0 {
		x1 = w - dx
	} else {
		x0 = -dx
	}
	if x0 > w {
		x0 = w
	}
	if x1 < x0 {
		x1 = x0
	}
	return x0, x1
}

// col2imAdd scatter-adds the patch-gradient matrix gradP ([ic·k³, d·h·w])
// into one sample's input-gradient slab gradIn ([ic, d, h, w]). Each input
// channel is a single-owner partition; within it, taps and voxels are
// visited in ascending order, so the accumulation order per element is
// fixed for every worker budget.
func col2imAdd(gradP []float32, ic, d, h, w, k, p int, gradIn []float32, workers int) {
	cols := d * h * w
	kk := k * k * k
	parallel.ForWorkers(workers, ic, 1, func(lo, hi int) {
		for ici := lo; ici < hi; ici++ {
			dst := gradIn[ici*cols : (ici+1)*cols]
			for tap := 0; tap < kk; tap++ {
				kx := tap % k
				ky := (tap / k) % k
				kz := tap / (k * k)
				dz, dy, dx := kz-p, ky-p, kx-p
				src := gradP[(ici*kk+tap)*cols:]
				x0, x1 := tapXRange(dx, w)
				for z := 0; z < d; z++ {
					iz := z + dz
					if iz < 0 || iz >= d {
						continue
					}
					for y := 0; y < h; y++ {
						iy := y + dy
						if iy < 0 || iy >= h {
							continue
						}
						o := (z*h + y) * w
						drow := dst[(iz*h+iy)*w:]
						for i := x0; i < x1; i++ {
							drow[i+dx] += src[o+i]
						}
					}
				}
			}
		}
	})
}
