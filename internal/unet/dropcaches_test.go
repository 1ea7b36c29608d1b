package unet

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestDropCachesBitNeutralAcrossSteps: releasing every retained cache
// between two training steps must not change the arithmetic of the second
// step, under either conv engine.
func TestDropCachesBitNeutralAcrossSteps(t *testing.T) {
	for _, name := range nn.ConvEngines() {
		engine, _ := nn.LookupConvEngine(name)
		cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
			Kernel: 3, UpKernel: 2, Seed: 4, Engine: engine}
		rng := rand.New(rand.NewSource(8))
		x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

		step := func(u *UNet) (*tensor.Tensor, *tensor.Tensor) {
			u.ZeroGrads()
			out := u.Forward(x)
			grad := tensor.Randn(rand.New(rand.NewSource(9)), 0, 1, out.Shape()...)
			gin := u.Backward(grad)
			return out, gin
		}

		ctrl := MustNew(cfg)
		step(ctrl)
		outC, ginC := step(ctrl)

		sub := MustNew(cfg)
		step(sub)
		sub.DropCaches()
		outS, ginS := step(sub)

		for i, v := range outC.Data() {
			if outS.Data()[i] != v {
				t.Fatalf("engine %v: forward diverges after DropCaches", engine)
			}
		}
		for i, v := range ginC.Data() {
			if ginS.Data()[i] != v {
				t.Fatalf("engine %v: input gradient diverges after DropCaches", engine)
			}
		}
		cp, sp := ctrl.Params(), sub.Params()
		for i := range cp {
			a, b := cp[i].Grad.Data(), sp[i].Grad.Data()
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("engine %v: gradient of %s diverges after DropCaches", engine, cp[i].Name)
				}
			}
		}
	}
}

// TestTrainingStepReturnsEveryScratchBuffer: no layer keeps a pooled
// buffer between steps — a full training step Puts back every scratch
// buffer it Gets, so there is nothing for DropCaches to return to the pool.
func TestTrainingStepReturnsEveryScratchBuffer(t *testing.T) {
	cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 4, Engine: nn.EngineGEMM}
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(8))
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

	before := tensor.ScratchStatsSnapshot()
	u.ZeroGrads()
	out := u.Forward(x)
	u.Backward(tensor.New(out.Shape()...))
	after := tensor.ScratchStatsSnapshot()

	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets == 0 {
		t.Fatal("test is vacuous: the training step never used the scratch pool")
	}
	if gets != puts {
		t.Fatalf("training step took %d scratch buffers and returned %d", gets, puts)
	}
}
