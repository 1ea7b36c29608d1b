// Package mirrored implements synchronous data parallelism with real
// gradient mathematics, the analogue of tf.MirroredStrategy. A Rank is one
// member of the membership: it trains its shard of every global batch,
// averages gradients with the other ranks over a ring all-reduce and applies
// the identical optimizer update, so replicas stay bit-for-bit
// synchronized. The Trainer runs R ranks in one process (goroutines standing
// in for GPUs) over in-memory links; internal/dist runs one rank per process
// over TCP. The paper's batch/learning-rate scaling rule (batch 2 per
// replica, lr = base × replicas) is applied by the constructor.
package mirrored

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Config describes a mirrored training setup.
type Config struct {
	Replicas  int
	Net       unet.Config
	Loss      string  // "dice", "quadratic-dice", "bce"
	Optimizer string  // "adam", "sgd"
	BaseLR    float64 // scaled by Replicas per the paper's rule
	ScaleLR   bool    // apply the linear scaling rule (paper: yes)

	// Workers is the total compute-worker budget for the whole trainer
	// (0 = the parallel package default, i.e. all cores). It is divided
	// evenly among the replicas — each replica goroutine already stands in
	// for one GPU, so replicas sharing the budget keeps a step at ~Workers
	// cores instead of oversubscribing Replicas × Workers.
	Workers int

	// GroupSize is the number of replicas per node: replicas reduce in a
	// ring within each node, then node leaders in a ring across nodes (the
	// hierarchical all-reduce). 0 means one flat ring.
	GroupSize int
}

// Trainer drives R replicas, one Rank each, over in-process ring links.
type Trainer struct {
	cfg      Config
	replicas []*Rank
	workers  []int // each replica's share of the worker budget
}

// New builds a trainer with identically initialized replicas.
func New(cfg Config) (*Trainer, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("mirrored: Replicas must be ≥ 1, got %d", cfg.Replicas)
	}
	// ShareN distributes the budget remainder, so a 7-core budget over two
	// replicas runs 4+3 instead of 3+3 with a core idle. Unequal shares are
	// safe: kernel results are bit-for-bit independent of the worker count,
	// so replicas stay synchronized regardless of their share.
	t := &Trainer{cfg: cfg, workers: parallel.ShareN(cfg.Workers, cfg.Replicas)}
	for r, topo := range allreduce.LocalTopologies(cfg.Replicas, cfg.GroupSize) {
		netCfg := cfg.Net // same seed → identical weights
		netCfg.Workers = t.workers[r]
		rank, err := NewRank(topo, netCfg, cfg.Loss, cfg.Optimizer, cfg.BaseLR, cfg.ScaleLR)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, rank)
	}
	return t, nil
}

// Replicas returns the replica count.
func (t *Trainer) Replicas() int { return len(t.replicas) }

// SetPhaseObserver implements train.PhaseReporter: fn receives replica 0's
// forward/backward/allreduce/optim durations each step (representative —
// replicas run identical shapes). Its allreduce phase includes waiting for
// slower replicas to reach the ring. Not synchronized with Step — install
// it before training starts.
func (t *Trainer) SetPhaseObserver(fn func(phase string, d time.Duration)) {
	t.replicas[0].SetPhaseObserver(fn)
}

// LR returns the effective (possibly scaled) learning rate.
func (t *Trainer) LR() float64 { return t.replicas[0].LR() }

// SetLR updates every replica's learning rate (for schedules).
func (t *Trainer) SetLR(lr float64) {
	for _, r := range t.replicas {
		r.SetLR(lr)
	}
}

// Model returns replica 0's network (all replicas are identical).
func (t *Trainer) Model() *unet.UNet { return t.replicas[0].model }

// Models returns every replica's network (cache hooks touch them all).
func (t *Trainer) Models() []*unet.UNet {
	out := make([]*unet.UNet, len(t.replicas))
	for i, r := range t.replicas {
		out[i] = r.model
	}
	return out
}

// ExportOptimState returns replica 0's optimizer state for checkpointing.
// Synchronous SGD keeps the replicas bitwise identical, so one replica's
// state describes them all.
func (t *Trainer) ExportOptimState() (map[string][]float64, error) {
	return t.replicas[0].ExportOptimState()
}

// ImportOptimState restores checkpointed optimizer state into every
// replica, re-establishing the bitwise synchronization invariant.
func (t *Trainer) ImportOptimState(state map[string][]float64) error {
	for _, rep := range t.replicas {
		if err := rep.ImportOptimState(state); err != nil {
			return err
		}
	}
	return nil
}

// BroadcastParams copies replica 0's parameter values and auxiliary state
// (batch-norm running statistics) bitwise into every other replica. A
// checkpoint loader writes into replica 0 (the Model()) and then broadcasts
// so all replicas resume in sync.
func (t *Trainer) BroadcastParams() {
	ref := t.replicas[0].model
	refParams := ref.Params()
	refAux := ref.AuxState()
	for _, rep := range t.replicas[1:] {
		ps := rep.model.Params()
		for i, p := range refParams {
			copy(ps[i].Value.Data(), p.Value.Data())
		}
		for k, v := range rep.model.AuxState() {
			copy(v, refAux[k])
		}
	}
}

// Step runs one synchronous data-parallel step on a global batch
// ([N, C, D, H, W] inputs, [N, 1, D, H, W] masks): every replica runs its
// Rank's Step concurrently. N must be divisible by the replica count. It
// returns the mean replica loss. If any replica fails, the trainer closes
// every link so that no replica waits in the ring forever, and the trainer
// stays unusable.
func (t *Trainer) Step(inputs, masks *tensor.Tensor) (float64, error) {
	n := inputs.Dim(0)
	r := len(t.replicas)
	if n%r != 0 {
		return 0, fmt.Errorf("mirrored: global batch %d not divisible by %d replicas", n, r)
	}
	if masks.Dim(0) != n {
		return 0, fmt.Errorf("mirrored: masks batch %d does not match inputs %d", masks.Dim(0), n)
	}
	var (
		loss     float64
		firstErr error
		once     sync.Once
		wg       sync.WaitGroup
	)
	for i, rep := range t.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := rep.Step(inputs, masks)
			if err != nil {
				once.Do(func() {
					firstErr = fmt.Errorf("mirrored: replica %d: %w", i, err)
					// Ranks blocked in the ring fail with ErrRingBroken.
					for _, other := range t.replicas {
						other.topo.Close()
					}
				})
				return
			}
			if i == 0 {
				loss = l
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return loss, nil
}

// Evaluate computes the mean hard Dice score of the current model over a
// validation batch, in evaluation mode.
func (t *Trainer) Evaluate(inputs, masks *tensor.Tensor) float64 {
	m := t.Model()
	m.SetTraining(false)
	defer m.SetTraining(true)
	// The other replicas are idle during evaluation, so replica 0 may use
	// the trainer's whole worker budget instead of its training share.
	m.SetWorkers(parallel.Resolve(t.cfg.Workers))
	defer m.SetWorkers(t.workers[0])
	pred := m.Forward(inputs)
	return metrics.DiceScore(pred, masks)
}

// InSync reports whether all replicas hold bitwise-identical parameters;
// synchronous SGD must keep this invariant after every step.
func (t *Trainer) InSync() bool {
	ref := t.replicas[0].model.Params()
	for _, rep := range t.replicas[1:] {
		ps := rep.model.Params()
		for i := range ref {
			a := ref[i].Value.Data()
			b := ps[i].Value.Data()
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
	}
	return true
}

// shardTensor returns rows [i·shard, (i+1)·shard) of a batched tensor
// (first dimension is the batch) as a zero-copy view: replicas only read
// their input and mask shards, so nothing needs the copy that used to churn
// one global batch of allocations per step.
func shardTensor(t *tensor.Tensor, i, shard int) *tensor.Tensor {
	return t.Slice(i*shard, (i+1)*shard)
}

// flattenGrads concatenates all parameter gradients into one buffer, the
// unit of the all-reduce.
func flattenGrads(params []*nn.Param) []float32 {
	n := 0
	for _, p := range params {
		n += p.Grad.Size()
	}
	out := make([]float32, 0, n)
	for _, p := range params {
		out = append(out, p.Grad.Data()...)
	}
	return out
}

// unflattenGrads writes a flat buffer back into parameter gradients.
func unflattenGrads(params []*nn.Param, flat []float32) {
	off := 0
	for _, p := range params {
		g := p.Grad.Data()
		copy(g, flat[off:off+len(g)])
		off += len(g)
	}
}
