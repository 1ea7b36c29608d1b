package nn

import (
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// Tests for the fused-packing GEMM path: the forward and the
// backward-weights pass stream patches from a zero-bordered copy of the
// input into the GEMM packing panels (im2colPackB, im2colPackBT), and must
// be bit-for-bit identical to GEMMs over a materialized patch matrix —
// across shape changes and engine switches, with no state kept between
// passes but the retained input.

// naivePatches builds the im2col patch matrix of one sample's input slab
// ([ic, d, h, w]) element by element from its definition: row
// (ici, kz, ky, kx), column (z, y, x), value x[ici, z+kz-p, y+ky-p, x+kx-p]
// or 0 in the padding.
func naivePatches(x []float32, ic, d, h, w, k int) []float32 {
	p := k / 2
	cols := d * h * w
	out := make([]float32, ic*k*k*k*cols)
	for ici := 0; ici < ic; ici++ {
		for kz := 0; kz < k; kz++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					row := out[(((ici*k+kz)*k+ky)*k+kx)*cols:]
					for z := 0; z < d; z++ {
						for y := 0; y < h; y++ {
							for xx := 0; xx < w; xx++ {
								iz, iy, ix := z+kz-p, y+ky-p, xx+kx-p
								if iz >= 0 && iz < d && iy >= 0 && iy < h && ix >= 0 && ix < w {
									row[(z*h+y)*w+xx] = x[ici*cols+(iz*h+iy)*w+ix]
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestFusedPackingMatchesMaterialized checks the layer's forward and kernel
// gradient element-for-element against an independent oracle — gemm.Gemm
// over naivePatches — at several worker budgets, and the forward against
// the direct serial reference within the engine tolerance.
func TestFusedPackingMatchesMaterialized(t *testing.T) {
	cases := []struct {
		name         string
		inC, outC, k int
		n, d, h, w   int
	}{
		{"body3x3x3", 3, 5, 3, 2, 6, 5, 7},
		{"head1x1x1", 4, 1, 1, 2, 5, 3, 7},
		{"kernel5", 2, 3, 5, 1, 7, 5, 9},
		// w = 1 < |dx| = 2: the outer taps read nothing but padding — an
		// empty valid x-range, which must not form a negative slice bound.
		{"kernel5narrow", 1, 2, 5, 1, 4, 4, 1},
		{"bigvolume", 2, 4, 3, 1, 8, 9, 10}, // cols spans multiple ncBlocks
		// kdim = 4·5³ = 500 > kcBlock: the second K slice starts mid-tap
		// with dx = +2, driving the packed run's valid x-range negative at
		// the row tail (regression test for an out-of-range panel write).
		{"kernel5deepK", 4, 2, 5, 1, 5, 5, 5},
		// w = 300: the backward-weights K slices (384 voxels each) start
		// mid-row — the second at x = 84 of row 1.
		{"midrowKslice", 3, 7, 3, 3, 17, 3, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			x := randTensor(rng, tc.n, tc.inC, tc.d, tc.h, tc.w)
			gradOut := randTensor(rng, tc.n, tc.outC, tc.d, tc.h, tc.w)

			ref := NewConv3D("ref", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(6)))
			for i := range ref.B.Value.Data() {
				ref.B.Value.Data()[i] = float32(i) - 0.5 // a nonzero bias seed
			}
			refOut := ref.forwardSerial(x)

			// The oracle: per sample, out = b + W·P and gW += gOut·Pᵀ over
			// the materialized P, partials summed in ascending sample order.
			cols := tc.d * tc.h * tc.w
			kdim := tc.inC * tc.k * tc.k * tc.k
			xd, god, wd := x.Data(), gradOut.Data(), ref.W.Value.Data()
			wantOut := make([]float32, tc.n*tc.outC*cols)
			wantGW := make([]float32, tc.outC*kdim)
			part := make([]float32, tc.outC*kdim)
			for ni := 0; ni < tc.n; ni++ {
				pm := naivePatches(xd[ni*tc.inC*cols:(ni+1)*tc.inC*cols], tc.inC, tc.d, tc.h, tc.w, tc.k)
				o := wantOut[ni*tc.outC*cols : (ni+1)*tc.outC*cols]
				ref.seedBias(o, tc.outC, cols)
				gemm.Gemm(false, false, tc.outC, cols, kdim, wd, kdim, pm, cols, true, o, cols, 1)
				gemm.Gemm(false, true, tc.outC, kdim, cols, god[ni*tc.outC*cols:], cols, pm, cols, false, part, kdim, 1)
				for j := range wantGW {
					wantGW[j] += part[j]
				}
			}

			for _, workers := range []int{1, 2, 7} {
				c := NewConv3D("c", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(6)))
				c.B.Value.CopyFrom(ref.B.Value)
				c.SetConvEngine(EngineGEMM)
				c.SetWorkers(workers)
				out := c.Forward(x)
				c.Backward(gradOut)
				assertBitEqual(t, "forward vs materialized oracle", workers, wantOut, out.Data())
				assertBitEqual(t, "kernel grad vs materialized oracle", workers, wantGW, c.W.Grad.Data())
				assertWithinULP(t, "fused vs serial", workers, refOut.Data(), out.Data(), forwardMaxULP)
			}
		})
	}
}

// TestEvalForwardFillsNoPatchCache asserts an evaluation forward — a
// larger volume after a training step at a small one, as validation epochs
// do — is bit-for-bit equal to a fresh layer's forward, and that a
// Backward following it is as legal and exact as after any forward: the
// layer keeps nothing from the earlier step but the input it retains.
func TestEvalForwardFillsNoPatchCache(t *testing.T) {
	const inC, outC, k = 3, 4, 3
	rng := rand.New(rand.NewSource(55))
	small := randTensor(rng, 1, inC, 4, 4, 4)
	big := randTensor(rng, 2, inC, 8, 8, 8)

	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(13)))
	c.SetConvEngine(EngineGEMM)
	c.Forward(small)
	c.Backward(randTensor(rng, 1, outC, 4, 4, 4))
	ZeroGrads(c.Params())

	ref := NewConv3D("ref", inC, outC, k, rand.New(rand.NewSource(13)))
	ref.SetConvEngine(EngineGEMM)
	want := ref.Forward(big)

	got := c.Forward(big)
	assertBitEqual(t, "eval vs training forward", 0, want.Data(), got.Data())

	gradOut := randTensor(rng, 2, outC, 8, 8, 8)
	wantIn := ref.Backward(gradOut)
	gotIn := c.Backward(gradOut)
	assertBitEqual(t, "backward after eval forward", 0, wantIn.Data(), gotIn.Data())
	assertBitEqual(t, "kernel grad after eval forward", 0, ref.W.Grad.Data(), c.W.Grad.Data())
}

// TestFusedShapeChange runs training steps through one layer at
// alternating input shapes (grow, shrink, grow) and checks every step's
// gradients against a fresh layer on the same data — nothing sized by an
// earlier step may be read in a later one.
func TestFusedShapeChange(t *testing.T) {
	shapes := []struct{ n, d, h, w int }{
		{1, 4, 4, 4},
		{2, 6, 5, 7}, // bigger batch and volume
		{1, 3, 3, 3}, // shrink
		{2, 6, 5, 7}, // grow again
	}
	const inC, outC, k = 3, 4, 3
	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(12)))
	c.SetConvEngine(EngineGEMM)

	for step, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(100 + step)))
		x := randTensor(rng, sh.n, inC, sh.d, sh.h, sh.w)
		gradOut := randTensor(rng, sh.n, outC, sh.d, sh.h, sh.w)

		fresh := NewConv3D("fresh", inC, outC, k, rand.New(rand.NewSource(12)))
		fresh.SetConvEngine(EngineGEMM)
		fresh.W.Value.CopyFrom(c.W.Value)
		fresh.B.Value.CopyFrom(c.B.Value)

		ZeroGrads(c.Params())
		out := c.Forward(x)
		in := c.Backward(gradOut)
		wantOut := fresh.Forward(x)
		wantIn := fresh.Backward(gradOut)

		assertBitEqual(t, "forward after shape change", step, wantOut.Data(), out.Data())
		assertBitEqual(t, "input grad after shape change", step, wantIn.Data(), in.Data())
		assertBitEqual(t, "kernel grad after shape change", step, fresh.W.Grad.Data(), c.W.Grad.Data())
	}
}

// TestFusedBackwardAfterEngineSwitch forwards under the direct engine,
// switches to GEMM, and calls Backward: the GEMM backward packs its patches
// from the retained input whichever engine ran the forward, yielding
// gradients within the engine tolerance of the serial reference.
func TestFusedBackwardAfterEngineSwitch(t *testing.T) {
	const inC, outC, k, n, d, h, w = 3, 4, 3, 2, 5, 4, 6
	rng := rand.New(rand.NewSource(77))
	x := randTensor(rng, n, inC, d, h, w)
	gradOut := randTensor(rng, n, outC, d, h, w)

	ref := NewConv3D("ref", inC, outC, k, rand.New(rand.NewSource(5)))
	ref.forwardSerial(x)
	refIn := ref.backwardSerial(gradOut)

	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(5)))
	c.SetConvEngine(EngineDirect)
	c.Forward(x)
	c.SetConvEngine(EngineGEMM)
	in := c.Backward(gradOut)

	assertWithinULP(t, "input grad after engine switch", 0, refIn.Data(), in.Data(), backwardMaxULP)
	assertWithinULP(t, "kernel grad after engine switch", 0, ref.W.Grad.Data(), c.W.Grad.Data(), backwardMaxULP)
}

// TestTrainingStepScratchSteadyStateConv is the layer-local allocation
// contract of the fused path: after warm-up, a forward/backward step draws
// every buffer (partials, gradP, packing panels) from the scratch pool —
// zero fresh allocations.
func TestTrainingStepScratchSteadyStateConv(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	const inC, outC, k, n, dim = 4, 6, 3, 2, 8
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, n, inC, dim, dim, dim)
	gradOut := randTensor(rng, n, outC, dim, dim, dim)
	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(4)))
	c.SetConvEngine(EngineGEMM)

	step := func() {
		ZeroGrads(c.Params())
		c.Forward(x)
		c.Backward(gradOut)
	}
	step()
	step()
	before := tensor.ScratchStatsSnapshot()
	step()
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state conv step performed %d scratch allocations, want 0", got)
	}
}
