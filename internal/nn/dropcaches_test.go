package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestConv3DDropCachesReleasesInput: the ROADMAP memory-pressure hook must
// drop the retained input, and the next training step must rebuild what it
// needs without changing a bit.
func TestConv3DDropCachesReleasesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func() *Conv3D {
		c := NewConv3D("c", 2, 3, 3, rand.New(rand.NewSource(7)))
		c.SetConvEngine(EngineGEMM)
		return c
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)
	g := tensor.Randn(rng, 0, 1, 2, 3, 4, 4, 4)

	// Control: two consecutive steps, no cache drop.
	ctrl := mk()
	ctrl.Forward(x)
	ctrl.Backward(g)
	out2 := ctrl.Forward(x)
	gin2 := ctrl.Backward(g)

	// Under test: caches dropped between the steps.
	sub := mk()
	sub.Forward(x)
	sub.Backward(g)
	sub.DropCaches()
	if sub.input != nil {
		t.Fatal("DropCaches left retained state behind")
	}
	out2b := sub.Forward(x)
	gin2b := sub.Backward(g)

	for i, v := range out2.Data() {
		if out2b.Data()[i] != v {
			t.Fatalf("forward diverges after DropCaches at %d", i)
		}
	}
	for i, v := range gin2.Data() {
		if gin2b.Data()[i] != v {
			t.Fatalf("backward diverges after DropCaches at %d", i)
		}
	}
	for i, v := range ctrl.W.Grad.Data() {
		if sub.W.Grad.Data()[i] != v {
			t.Fatalf("weight gradient diverges after DropCaches at %d", i)
		}
	}
}

// TestSequentialDropCachesReachesLayers: the container forwards the hook to
// every cache-holding layer.
func TestSequentialDropCachesReachesLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv3D("c", 2, 2, 3, rng)
	conv.SetConvEngine(EngineGEMM)
	up := NewConvTranspose3D("u", 2, 2, 2, rng)
	seq := NewSequential(conv, NewReLU(), up)

	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	out := seq.Forward(x)
	seq.Backward(tensor.New(out.Shape()...))
	if conv.input == nil || up.input == nil {
		t.Fatal("expected retained caches after a training step")
	}
	seq.DropCaches()
	if conv.input != nil || up.input != nil {
		t.Fatal("Sequential.DropCaches missed a layer")
	}
}
