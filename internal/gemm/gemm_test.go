package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naive computes C (+)= op(A)·op(B) with a float64-accumulating triple loop,
// the correctness reference.
func naive(transA, transB bool, m, n, k int,
	a []float32, lda int, b []float32, ldb int,
	accumulate bool, c []float32, ldc int) {

	at := func(i, p int) float32 {
		if transA {
			return a[p*lda+i]
		}
		return a[i*lda+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*ldb+p]
		}
		return b[p*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(at(i, p)) * float64(bt(p, j))
			}
			if accumulate {
				c[i*ldc+j] += float32(acc)
			} else {
				c[i*ldc+j] = float32(acc)
			}
		}
	}
}

func randMat(rng *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32(rng.NormFloat64())
	}
	return m
}

// tolFor returns an absolute tolerance scaled to the accumulation depth:
// float32 summation of k N(0,1) products drifts by O(k·eps) against the
// float64 reference.
func tolFor(k int) float64 {
	return 1e-5 + float64(k)*4e-7
}

func TestGemmMatchesNaive(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{1, 5, 3},
		{3, 1, 7},
		{4, 4, 4},
		{5, 7, 9},         // nothing divides the tile sizes
		{16, 216, 4096},   // backward-weights shape (K spans many kcBlocks)
		{16, 4096, 216},   // forward shape
		{216, 300, 16},    // backward-input shape
		{129, 257, 385},   // one past every blocking constant
		{mr, nr, kcBlock}, // exactly one tile, one K slice
		{mcBlock, ncBlock, 8},
	}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, acc := range []bool{false, true} {
					name := fmt.Sprintf("m%d_n%d_k%d_tA%v_tB%v_acc%v",
						sh.m, sh.n, sh.k, transA, transB, acc)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(7))
						lda, ldb := sh.k, sh.n
						if transA {
							lda = sh.m
						}
						if transB {
							ldb = sh.k
						}
						a := randMat(rng, sh.m*sh.k)
						b := randMat(rng, sh.k*sh.n)
						c := randMat(rng, sh.m*sh.n)
						want := append([]float32(nil), c...)

						Gemm(transA, transB, sh.m, sh.n, sh.k, a, lda, b, ldb, acc, c, sh.n, 1)
						naive(transA, transB, sh.m, sh.n, sh.k, a, lda, b, ldb, acc, want, sh.n)

						tol := tolFor(sh.k)
						for i := range want {
							// !(d <= tol) instead of d > tol so NaN fails.
							if d := math.Abs(float64(c[i] - want[i])); !(d <= tol) {
								t.Fatalf("element %d: got %v want %v (|diff| %g > %g)",
									i, c[i], want[i], d, tol)
							}
						}
					})
				}
			}
		}
	}
}

// TestGemmWorkerCountInvariant asserts the bit-for-bit determinism contract:
// the same product at any worker budget yields identical floats, because
// each C element is owned by one column-block worker and accumulated in a
// budget-independent order.
func TestGemmWorkerCountInvariant(t *testing.T) {
	const m, n, k = 48, 2*ncBlock + 37, kcBlock + 129
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	ref := make([]float32, m*n)
	Gemm(false, false, m, n, k, a, k, b, n, false, ref, n, 1)

	for _, workers := range []int{2, 3, 7, 16} {
		c := make([]float32, m*n)
		Gemm(false, false, m, n, k, a, k, b, n, false, c, n, workers)
		for i := range ref {
			if c[i] != ref[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v (bit-for-bit)",
					workers, i, c[i], ref[i])
			}
		}
	}
}

// TestGemmPackBMatchesDense asserts the fused-packing contract: GemmPackB
// with a pack function describing a matrix is bit-for-bit equal to Gemm
// over the materialized matrix, at several worker budgets.
func TestGemmPackBMatchesDense(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{16, 4096, 216}, // conv forward shape
		{5, 7, 9},
		{129, 2*ncBlock + 37, kcBlock + 129},
	}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, acc := range []bool{false, true} {
				name := fmt.Sprintf("m%d_n%d_k%d_tA%v_acc%v", sh.m, sh.n, sh.k, transA, acc)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(11))
					lda := sh.k
					if transA {
						lda = sh.m
					}
					a := randMat(rng, sh.m*sh.k)
					b := randMat(rng, sh.k*sh.n)
					seed := randMat(rng, sh.m*sh.n)

					want := append([]float32(nil), seed...)
					Gemm(transA, false, sh.m, sh.n, sh.k, a, lda, b, sh.n, acc, want, sh.n, 1)

					pack := func(p0, pw, j0, jw int, dst []float32) {
						packB(false, b, sh.n, p0, pw, j0, jw, dst)
					}
					for _, workers := range []int{1, 3, 8} {
						got := append([]float32(nil), seed...)
						GemmPackB(transA, sh.m, sh.n, sh.k, a, lda, pack, acc, got, sh.n, workers)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("workers=%d: element %d = %v, want %v (bit-for-bit)",
									workers, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestGemmBatchMatchesSequential asserts GemmBatch is bit-for-bit equal to
// count sequential Gemm calls, at any worker budget — what makes the
// batch-parallel backward-weights pass worker-count invariant. Each
// instance's B is supplied both as DensePackB and as a virtual packer that
// writes every panel element from its (row, column) coordinates, the way
// the convolution engine's im2col packers do.
func TestGemmBatchMatchesSequential(t *testing.T) {
	const count, m, n, k = 5, 16, 216, 300 // backward-weights-like: n fits one block
	rng := rand.New(rand.NewSource(13))
	as := make([][]float32, count)
	bs := make([][]float32, count)
	want := make([][]float32, count)
	seed := make([][]float32, count)
	for i := range as {
		as[i] = randMat(rng, m*k)
		bs[i] = randMat(rng, n*k) // transB: stored n×k
		seed[i] = randMat(rng, m*n)
		want[i] = append([]float32(nil), seed[i]...)
		Gemm(false, true, m, n, k, as[i], k, bs[i], k, true, want[i], n, 1)
	}
	virtual := func(b []float32) PackBFunc {
		return func(p0, pw, j0, jw int, dst []float32) {
			for jp := 0; jp*PanelCols < jw; jp++ {
				for p := 0; p < pw; p++ {
					for jj := 0; jj < PanelCols; jj++ {
						var v float32
						if j := jp*PanelCols + jj; j < jw {
							v = b[(j0+j)*k+p0+p] // op(B)[p0+p, j0+j] of the n×k store
						}
						dst[jp*pw*PanelCols+p*PanelCols+jj] = v
					}
				}
			}
		}
	}
	packers := map[string][]PackBFunc{}
	for i := range bs {
		packers["dense"] = append(packers["dense"], DensePackB(true, bs[i], k))
		packers["virtual"] = append(packers["virtual"], virtual(bs[i]))
	}
	for name, packs := range packers {
		for _, workers := range []int{1, 2, 7, 16} {
			got := make([][]float32, count)
			for i := range got {
				got[i] = append([]float32(nil), seed[i]...)
			}
			GemmBatch(count, false, m, n, k,
				func(i int) []float32 { return as[i] }, k,
				func(i int) PackBFunc { return packs[i] },
				true,
				func(i int) []float32 { return got[i] }, n, workers)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s packer, workers=%d: instance %d element %d = %v, want %v (bit-for-bit)",
							name, workers, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestGemmStridedC checks that a C leading dimension wider than n leaves the
// gutter columns untouched.
func TestGemmStridedC(t *testing.T) {
	const m, n, k, ldc = 5, 6, 7, 9
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	c := make([]float32, m*ldc)
	for i := range c {
		c[i] = -42
	}
	Gemm(false, false, m, n, k, a, k, b, n, false, c, ldc, 1)
	want := make([]float32, m*n)
	naive(false, false, m, n, k, a, k, b, n, false, want, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(float64(c[i*ldc+j] - want[i*n+j])); !(d <= tolFor(k)) {
				t.Fatalf("C[%d,%d] = %v, want %v", i, j, c[i*ldc+j], want[i*n+j])
			}
		}
		for j := n; j < ldc; j++ {
			if c[i*ldc+j] != -42 {
				t.Fatalf("gutter C[%d,%d] overwritten: %v", i, j, c[i*ldc+j])
			}
		}
	}
}

func TestGemmZeroK(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	Gemm(false, false, 2, 2, 0, nil, 1, nil, 1, false, c, 2, 1)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("k=0 without accumulate must zero C, got %v at %d", v, i)
		}
	}
	c = []float32{1, 2, 3, 4}
	Gemm(false, false, 2, 2, 0, nil, 1, nil, 1, true, c, 2, 1)
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("k=0 with accumulate must leave C, got %v", c)
	}
}

func BenchmarkGemm(b *testing.B) {
	// The forward-convolution shape of the benchmark U-Net layer:
	// [OC × IC·K³] · [IC·K³ × D·H·W].
	const m, n, k = 16, 4096, 216
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, m*k)
	bb := randMat(rng, k*n)
	c := make([]float32, m*n)
	flops := 2 * int64(m) * int64(n) * int64(k)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(flops) // rendered as "bytes"/s == FLOP/s
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Gemm(false, false, m, n, k, a, k, bb, n, false, c, n, workers)
			}
		})
	}
}
