// Package gemm implements a cache-blocked, register-tiled float32 matrix
// multiply — the compute core of the im2col convolution engine.
//
// The kernel follows the classic BLIS/GotoBLAS decomposition: the operands
// are repacked into contiguous panels (A into mr-row panels, B into nr-column
// panels) so the innermost microkernel streams through memory linearly, K is
// blocked into kcBlock-deep slices that keep a B panel resident in L2, and
// the microkernel accumulates an mr×nr register tile of C with mr·nr
// independent dependency chains (the direct convolution loops carry a single
// accumulator chain, which is what limits them to one FMA every few cycles).
//
// Parallelism and determinism: work is partitioned over fixed-width column
// blocks of C via internal/parallel, so every C element is owned by exactly
// one worker and is accumulated in a fixed order — K ascending within a
// kcBlock-deep slice, slices in ascending order — that depends only on the
// problem shape, never on the worker budget. Results are therefore
// bit-for-bit identical for any worker count (asserted by
// TestGemmWorkerCountInvariant). They differ from a naive triple loop only
// by float reassociation across kcBlock boundaries and the register tile.
//
// The B-side packer is pluggable: GemmPackB accepts a PackBFunc that
// streams op(B) panels straight into the packed buffer, so callers whose B
// is a *virtual* matrix (the convolution engine's im2col patch matrix) can
// skip materializing it entirely. Because the packed panel contents are
// identical either way, GemmPackB is bit-for-bit equal to Gemm over the
// materialized matrix. GemmBatch runs `count` independent same-shape
// products, each with its own PackBFunc, with the parallel partition over
// (instance × column block) pairs, lifting the parallel degree of
// many-small-GEMM callers (the convolution backward-weights pass, whose B
// is the transposed virtual patch matrix) past the per-product block count.
//
// The packing panels come from the tensor scratch pool, so steady-state
// callers allocate nothing.
package gemm

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

const (
	// mr × nr is the register tile: 16 independent accumulator chains,
	// the most the amd64 register file sustains in pure Go.
	mr = 4
	nr = 4

	// kcBlock is the K-blocking depth. It is a fixed constant — never
	// adapted to the worker count or problem size — because C elements
	// are accumulated one kcBlock-slice at a time, so changing it would
	// change rounding. A 4-row/column panel pair of this depth is ~8 KiB,
	// and a full B block (kcBlock × ncBlock) is 384 KiB, L2-resident.
	kcBlock = 384

	// ncBlock is the column-block width, the unit of parallel work.
	// Narrow enough that modest N (e.g. the 216-column backward-weights
	// GEMM of an 8-channel 3×3×3 layer) still splits across workers.
	ncBlock = 256

	// mcBlock is the A-panel row blocking, bounding the packed-A scratch.
	mcBlock = 128
)

// PanelCols is the column width of a packed B panel — the nr of the
// register tile. A PackBFunc must produce panels of exactly this width.
const PanelCols = nr

// PackBFunc fills dst with the PanelCols-column panels of the pw×jw block
// of op(B) at row p0, column j0:
//
//	dst[jp·pw·PanelCols + p·PanelCols + jj] = op(B)[p0+p, j0+jp·PanelCols+jj]
//
// zero-padded for jj past jw. It is the contract packB satisfies for a
// dense matrix; a virtual-B caller (im2col) computes the same elements
// straight from its source. The function may be called concurrently from
// several workers with disjoint (p0, j0) blocks and distinct dst buffers.
type PackBFunc func(p0, pw, j0, jw int, dst []float32)

// Gemm computes C = op(A)·op(B), or C += op(A)·op(B) when accumulate is
// true, over dense row-major operands: op(A) is m×k, op(B) is k×n and C is
// m×n with leading dimensions lda, ldb, ldc. transA/transB select op(X) =
// Xᵀ, in which case the stored A is k×m (resp. B is n×k). workers is the
// parallel worker budget (0 = the global default).
func Gemm(transA, transB bool, m, n, k int,
	a []float32, lda int, b []float32, ldb int,
	accumulate bool, c []float32, ldc int, workers int) {

	GemmPackB(transA, m, n, k, a, lda, DensePackB(transB, b, ldb),
		accumulate, c, ldc, workers)
}

// DensePackB returns the PackBFunc of a dense row-major operand: op(B) is
// b (k×n, leading dimension ldb) or, when trans is true, bᵀ with b stored
// n×k. It is the packer Gemm uses; GemmBatch callers whose B operands are
// plain matrices pass it per instance.
func DensePackB(trans bool, b []float32, ldb int) PackBFunc {
	return func(p0, pw, j0, jw int, dst []float32) {
		packB(trans, b, ldb, p0, pw, j0, jw, dst)
	}
}

// GemmPackB is Gemm with the B operand supplied as a PackBFunc instead of
// a dense matrix: pack is invoked per (K-slice, column-block) pair to
// produce the packed panels directly, so op(B) never needs to exist in
// memory. Results are bit-for-bit identical to Gemm over the matrix the
// pack function describes (the compute kernel consumes identical panels in
// an identical order).
func GemmPackB(transA bool, m, n, k int,
	a []float32, lda int, pack PackBFunc,
	accumulate bool, c []float32, ldc int, workers int) {

	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if !accumulate {
			for i := 0; i < m; i++ {
				row := c[i*ldc : i*ldc+n]
				for j := range row {
					row[j] = 0
				}
			}
		}
		return
	}

	nBlocks := (n + ncBlock - 1) / ncBlock
	parallel.ForWorkers(workers, nBlocks, 1, func(lo, hi int) {
		packedB := tensor.GetScratch(kcBlock * ncBlock)
		packedA := tensor.GetScratch(mcBlock * kcBlock)
		defer tensor.PutScratch(packedB)
		defer tensor.PutScratch(packedA)
		for jb := lo; jb < hi; jb++ {
			columnBlock(jb, transA, m, n, k, a, lda, pack,
				accumulate, c, ldc, packedA, packedB)
		}
	})
}

// columnBlock computes column block jb of one C = op(A)·B product — the
// unit of parallel work shared by GemmPackB and GemmBatch. The accumulation
// order within the block (K ascending within a kcBlock slice, slices
// ascending) depends only on the problem shape.
func columnBlock(jb int, transA bool, m, n, k int,
	a []float32, lda int, pack PackBFunc,
	accumulate bool, c []float32, ldc int, packedA, packedB []float32) {

	j0 := jb * ncBlock
	jw := min(ncBlock, n-j0)
	for p0 := 0; p0 < k; p0 += kcBlock {
		pw := min(kcBlock, k-p0)
		pack(p0, pw, j0, jw, packedB)
		overwrite := p0 == 0 && !accumulate
		for i0 := 0; i0 < m; i0 += mcBlock {
			iw := min(mcBlock, m-i0)
			packA(transA, a, lda, i0, iw, p0, pw, packedA)
			macroKernel(iw, jw, pw, packedA, packedB,
				c, i0*ldc+j0, ldc, overwrite)
		}
	}
}

// GemmBatch computes count independent, same-shape products
// C[i] = op(A[i])·op(B[i]) (or += when accumulate is true): the operands of
// instance i are fetched through the a/b/c accessors, op(B[i]) as the
// instance's PackBFunc (DensePackB for a dense matrix; the accessor is
// called once per work item, so it should return a prebuilt packer rather
// than allocate one). The parallel
// partition is over (instance × column block) pairs, so the parallel
// degree is count × ⌈n/ncBlock⌉ — this is what lets the convolution
// backward-weights pass scale with the batch size when its per-product
// column count fits in one or two blocks. Each C element is still owned by
// exactly one worker and accumulated in a shape-only order, so results are
// bit-for-bit identical to count sequential GemmPackB calls at any budget.
func GemmBatch(count int, transA bool, m, n, k int,
	a func(int) []float32, lda int, b func(int) PackBFunc,
	accumulate bool, c func(int) []float32, ldc int, workers int) {

	if count <= 0 || m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if !accumulate {
			for i := 0; i < count; i++ {
				ci := c(i)
				for r := 0; r < m; r++ {
					row := ci[r*ldc : r*ldc+n]
					for j := range row {
						row[j] = 0
					}
				}
			}
		}
		return
	}

	nBlocks := (n + ncBlock - 1) / ncBlock
	parallel.ForWorkers(workers, count*nBlocks, 1, func(lo, hi int) {
		packedB := tensor.GetScratch(kcBlock * ncBlock)
		packedA := tensor.GetScratch(mcBlock * kcBlock)
		defer tensor.PutScratch(packedB)
		defer tensor.PutScratch(packedA)
		for item := lo; item < hi; item++ {
			i, jb := item/nBlocks, item%nBlocks
			columnBlock(jb, transA, m, n, k, a(i), lda, b(i),
				accumulate, c(i), ldc, packedA, packedB)
		}
	})
}

// packA copies the iw×pw block of op(A) at (i0, p0) into mr-row panels:
// panel ip holds rows [ip·mr, ip·mr+mr) interleaved by K, i.e.
// dst[ip·pw·mr + p·mr + ii] = op(A)[i0+ip·mr+ii, p0+p], zero-padded past iw.
func packA(trans bool, a []float32, lda, i0, iw, p0, pw int, dst []float32) {
	panels := (iw + mr - 1) / mr
	for ip := 0; ip < panels; ip++ {
		out := dst[ip*pw*mr:]
		rows := min(mr, iw-ip*mr)
		if trans {
			// op(A)[i, p] = a[p·lda + i]
			base := p0*lda + i0 + ip*mr
			for p := 0; p < pw; p++ {
				src := a[base+p*lda:]
				o := p * mr
				for ii := 0; ii < rows; ii++ {
					out[o+ii] = src[ii]
				}
				for ii := rows; ii < mr; ii++ {
					out[o+ii] = 0
				}
			}
			continue
		}
		for ii := 0; ii < rows; ii++ {
			src := a[(i0+ip*mr+ii)*lda+p0:]
			for p := 0; p < pw; p++ {
				out[p*mr+ii] = src[p]
			}
		}
		for ii := rows; ii < mr; ii++ {
			for p := 0; p < pw; p++ {
				out[p*mr+ii] = 0
			}
		}
	}
}

// packB copies the pw×jw block of op(B) at (p0, j0) into nr-column panels:
// dst[jp·pw·nr + p·nr + jj] = op(B)[p0+p, j0+jp·nr+jj], zero-padded past jw.
func packB(trans bool, b []float32, ldb, p0, pw, j0, jw int, dst []float32) {
	panels := (jw + nr - 1) / nr
	for jp := 0; jp < panels; jp++ {
		out := dst[jp*pw*nr:]
		cols := min(nr, jw-jp*nr)
		if trans {
			// op(B)[p, j] = b[j·ldb + p]
			for jj := 0; jj < cols; jj++ {
				src := b[(j0+jp*nr+jj)*ldb+p0:]
				for p := 0; p < pw; p++ {
					out[p*nr+jj] = src[p]
				}
			}
			for jj := cols; jj < nr; jj++ {
				for p := 0; p < pw; p++ {
					out[p*nr+jj] = 0
				}
			}
			continue
		}
		base := p0*ldb + j0 + jp*nr
		for p := 0; p < pw; p++ {
			src := b[base+p*ldb:]
			o := p * nr
			for jj := 0; jj < cols; jj++ {
				out[o+jj] = src[jj]
			}
			for jj := cols; jj < nr; jj++ {
				out[o+jj] = 0
			}
		}
	}
}

// macroKernel multiplies the packed iw×pw A block by the packed pw×jw B
// block and merges the mr×nr register tiles into C at offset cOff. When
// overwrite is true the tile replaces C (the first K slice of a
// non-accumulating Gemm); otherwise it adds.
func macroKernel(iw, jw, pw int, packedA, packedB, c []float32, cOff, ldc int, overwrite bool) {
	var tile [mr * nr]float32
	jPanels := (jw + nr - 1) / nr
	iPanels := (iw + mr - 1) / mr
	for jp := 0; jp < jPanels; jp++ {
		bp := packedB[jp*pw*nr : (jp+1)*pw*nr]
		cols := min(nr, jw-jp*nr)
		for ip := 0; ip < iPanels; ip++ {
			ap := packedA[ip*pw*mr : (ip+1)*pw*mr]
			rows := min(mr, iw-ip*mr)
			microKernel(pw, ap, bp, &tile)
			base := cOff + ip*mr*ldc + jp*nr
			if overwrite {
				for ii := 0; ii < rows; ii++ {
					crow := c[base+ii*ldc:]
					trow := tile[ii*nr:]
					for jj := 0; jj < cols; jj++ {
						crow[jj] = trow[jj]
					}
				}
			} else {
				for ii := 0; ii < rows; ii++ {
					crow := c[base+ii*ldc:]
					trow := tile[ii*nr:]
					for jj := 0; jj < cols; jj++ {
						crow[jj] += trow[jj]
					}
				}
			}
		}
	}
}

// microKernel computes the mr×nr tile product of a packed A panel and a
// packed B panel over pw K steps. The 16 accumulators are independent
// dependency chains, which is where the throughput over the direct
// convolution loops comes from.
func microKernel(pw int, a, b []float32, out *[mr * nr]float32) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
	)
	a = a[: pw*mr : pw*mr]
	b = b[: pw*nr : pw*nr]
	// Two K steps per iteration: halves the loop overhead and gives the
	// scheduler two independent batches of 16 multiply-adds in flight.
	for len(a) >= 2*mr && len(b) >= 2*nr {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a4, a5, a6, a7 := a[4], a[5], a[6], a[7]
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c00 += a4 * b4
		c01 += a4 * b5
		c02 += a4 * b6
		c03 += a4 * b7
		c10 += a5 * b4
		c11 += a5 * b5
		c12 += a5 * b6
		c13 += a5 * b7
		c20 += a6 * b4
		c21 += a6 * b5
		c22 += a6 * b6
		c23 += a6 * b7
		c30 += a7 * b4
		c31 += a7 * b5
		c32 += a7 * b6
		c33 += a7 * b7
		a = a[2*mr:]
		b = b[2*nr:]
	}
	for len(a) >= mr && len(b) >= nr {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a = a[mr:]
		b = b[nr:]
	}
	out[0], out[1], out[2], out[3] = c00, c01, c02, c03
	out[4], out[5], out[6], out[7] = c10, c11, c12, c13
	out[8], out[9], out[10], out[11] = c20, c21, c22, c23
	out[12], out[13], out[14], out[15] = c30, c31, c32, c33
}
