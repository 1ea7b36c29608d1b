package mirrored

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/loss"
	"repro/internal/tensor"
	"repro/internal/unet"
)

func tinyNet() unet.Config {
	return unet.Config{
		InChannels:  2,
		OutChannels: 1,
		BaseFilters: 2,
		Steps:       2,
		Kernel:      3,
		UpKernel:    2,
		Seed:        11,
	}
}

func trainerConfig(replicas int) Config {
	return Config{
		Replicas:  replicas,
		Net:       tinyNet(),
		Loss:      "dice",
		Optimizer: "sgd",
		BaseLR:    0.05,
		ScaleLR:   false,
	}
}

func randBatch(seed int64, n int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.Randn(rng, 0, 1, n, 2, 4, 4, 4)
	mask := tensor.New(n, 1, 4, 4, 4)
	for i := range mask.Data() {
		if rng.Float64() < 0.35 {
			mask.Data()[i] = 1
		}
	}
	return in, mask
}

func TestNewValidation(t *testing.T) {
	if _, err := New(trainerConfig(0)); err == nil {
		t.Fatal("0 replicas must error")
	}
	bad := trainerConfig(1)
	bad.Loss = "nope"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown loss must error")
	}
	bad = trainerConfig(1)
	bad.Optimizer = "nope"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown optimizer must error")
	}
	bad = trainerConfig(1)
	bad.Net.Steps = 0
	if _, err := New(bad); err == nil {
		t.Fatal("bad net config must error")
	}
}

func TestLRScalingRule(t *testing.T) {
	cfg := trainerConfig(4)
	cfg.BaseLR = 1e-4
	cfg.ScaleLR = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: initial learning rate is 1e-4 × #GPUs.
	if math.Abs(tr.LR()-4e-4) > 1e-12 {
		t.Fatalf("lr %v, want 4e-4", tr.LR())
	}
}

func TestStepValidation(t *testing.T) {
	tr, err := New(trainerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(1, 3) // 3 not divisible by 2
	if _, err := tr.Step(in, mask); err == nil {
		t.Fatal("indivisible batch must error")
	}
	in, _ = randBatch(1, 2)
	_, mask = randBatch(2, 4)
	if _, err := tr.Step(in, mask); err == nil {
		t.Fatal("mask batch mismatch must error")
	}
}

func TestReplicasStayInSync(t *testing.T) {
	tr, err := New(trainerConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.InSync() {
		t.Fatal("fresh replicas must agree")
	}
	for step := 0; step < 3; step++ {
		in, mask := randBatch(int64(step), 4)
		if _, err := tr.Step(in, mask); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.InSync() {
		t.Fatal("replicas diverged after synchronous steps")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	tr, err := New(trainerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(7, 4)
	var first, last float64
	for step := 0; step < 40; step++ {
		l, err := tr.Step(in, mask)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = l
		}
		last = l
	}
	if !(last < first*0.85) {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

// TestShardingEquivalence verifies that a 2-replica trainer computes exactly
// the same update as manually averaging the two half-batch gradients on one
// replica — the defining property of synchronous data parallelism.
func TestShardingEquivalence(t *testing.T) {
	in, mask := randBatch(9, 2)

	// Reference: single replica, two manual half-batches, averaged grads.
	ref, err := New(trainerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	model := ref.Model()
	halfIn := shardTensor(in, 0, 1)
	halfMask := shardTensor(mask, 0, 1)
	model.ZeroGrads()
	pred := model.Forward(halfIn)
	l, err2 := refEval(pred, halfMask)
	if err2 != nil {
		t.Fatal(err2)
	}
	model.Backward(l)
	g0 := flattenGrads(model.Params())

	halfIn = shardTensor(in, 1, 1)
	halfMask = shardTensor(mask, 1, 1)
	model.ZeroGrads()
	pred = model.Forward(halfIn)
	l, err2 = refEval(pred, halfMask)
	if err2 != nil {
		t.Fatal(err2)
	}
	model.Backward(l)
	g1 := flattenGrads(model.Params())

	want := make([]float32, len(g0))
	for i := range want {
		want[i] = (g0[i] + g1[i]) / 2
	}

	// Mirrored path: 2 replicas, one step; capture the reduced gradients
	// by reading replica 0's grads right after Step applies them. Instead
	// of intercepting, rebuild the same reduction manually.
	mt, err := New(trainerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][]float32, 2)
	for i := 0; i < 2; i++ {
		rep := mt.replicas[i]
		rep.model.ZeroGrads()
		pred := rep.model.Forward(shardTensor(in, i, 1))
		_, grad := rep.loss.Eval(pred, shardTensor(mask, i, 1))
		rep.model.Backward(grad)
		grads[i] = flattenGrads(rep.model.Params())
	}
	if err := allreduce.RingAverage(grads); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(float64(grads[0][i]-want[i])) > 1e-5 {
			t.Fatalf("grad %d: mirrored %v vs reference %v", i, grads[0][i], want[i])
		}
	}
}

// refEval adapts the dice loss to return the gradient tensor for Backward.
func refEval(pred, target *tensor.Tensor) (*tensor.Tensor, error) {
	_, grad := loss.NewDice().Eval(pred, target)
	return grad, nil
}

func TestEvaluateReturnsDice(t *testing.T) {
	tr, err := New(trainerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(13, 1)
	d := tr.Evaluate(in, mask)
	if d < 0 || d > 1 {
		t.Fatalf("dice %v out of range", d)
	}
}

func TestSetLRPropagates(t *testing.T) {
	tr, err := New(trainerConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLR(0.123)
	if tr.LR() != 0.123 {
		t.Fatal("SetLR not applied")
	}
	// All replicas must share the rate, or they would diverge.
	for _, rep := range tr.replicas {
		if rep.opt.LR() != 0.123 {
			t.Fatal("replica LR out of sync")
		}
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	u := unet.MustNew(tinyNet())
	rng := rand.New(rand.NewSource(3))
	for _, p := range u.Params() {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = float32(rng.NormFloat64())
		}
	}
	flat := flattenGrads(u.Params())
	u2 := unet.MustNew(tinyNet())
	unflattenGrads(u2.Params(), flat)
	for i, p := range u.Params() {
		if tensor.MaxAbsDiff(p.Grad, u2.Params()[i].Grad) != 0 {
			t.Fatal("flatten/unflatten corrupted gradients")
		}
	}
}

// TestStepFailsWhenReplicaLinksClose closes one replica's ring links
// between steps: the next Step must return ErrRingBroken instead of leaving
// the other replicas waiting in the ring, and so must every later Step.
func TestStepFailsWhenReplicaLinksClose(t *testing.T) {
	tr, err := New(trainerConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(19, 4)
	if _, err := tr.Step(in, mask); err != nil {
		t.Fatal(err)
	}
	tr.replicas[1].topo.Close()
	for i := 0; i < 2; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := tr.Step(in, mask)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, allreduce.ErrRingBroken) {
				t.Fatalf("step %d: got %v, want ErrRingBroken", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("step %d hung after a replica's links closed", i)
		}
	}
}
