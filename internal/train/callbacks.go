package train

import (
	"repro/internal/optim"
)

// Callback observes and steers a Session. Hooks fire in callback order at
// every phase boundary of the canonical loop; returning an error aborts the
// session. Embed NopCallback and override only the hooks you need.
type Callback interface {
	// OnTrainBegin fires once when Fit starts (after a resume, the session
	// already carries its restored history and counters).
	OnTrainBegin(s *Session) error
	// OnEpochBegin fires before an epoch's first step.
	OnEpochBegin(s *Session, epoch int) error
	// OnStepBegin fires before each optimizer step with the global step
	// index — the learning-rate schedule hook.
	OnStepBegin(s *Session, step int) error
	// OnStepEnd fires after each optimizer step with its loss.
	OnStepEnd(s *Session, step int, loss float64) error
	// OnEvalBegin fires between an epoch's training phase and its
	// validation phase — the memory-pressure hook (caches filled by
	// training are dead weight during full-volume evaluation).
	OnEvalBegin(s *Session, epoch int) error
	// OnEpochEnd fires after validation with the epoch's statistics; this
	// is where early stopping, reporting and periodic checkpointing live.
	OnEpochEnd(s *Session, stats EpochStats) error
	// OnCheckpoint fires after a session checkpoint has been written.
	OnCheckpoint(s *Session, path string) error
	// OnTrainEnd fires once when the loop exits (budget reached or stop
	// requested), before Fit returns.
	OnTrainEnd(s *Session) error
}

// NopCallback implements every Callback hook as a no-op.
type NopCallback struct{}

// OnTrainBegin implements Callback.
func (NopCallback) OnTrainBegin(*Session) error { return nil }

// OnEpochBegin implements Callback.
func (NopCallback) OnEpochBegin(*Session, int) error { return nil }

// OnStepBegin implements Callback.
func (NopCallback) OnStepBegin(*Session, int) error { return nil }

// OnStepEnd implements Callback.
func (NopCallback) OnStepEnd(*Session, int, float64) error { return nil }

// OnEvalBegin implements Callback.
func (NopCallback) OnEvalBegin(*Session, int) error { return nil }

// OnEpochEnd implements Callback.
func (NopCallback) OnEpochEnd(*Session, EpochStats) error { return nil }

// OnCheckpoint implements Callback.
func (NopCallback) OnCheckpoint(*Session, string) error { return nil }

// OnTrainEnd implements Callback.
func (NopCallback) OnTrainEnd(*Session) error { return nil }

// History records per-epoch statistics and the learning rate in effect at
// each epoch end — the metric-history built-in.
type History struct {
	NopCallback
	Epochs []EpochStats
	LRs    []float64
}

// OnEpochEnd implements Callback.
func (h *History) OnEpochEnd(s *Session, stats EpochStats) error {
	h.Epochs = append(h.Epochs, stats)
	h.LRs = append(h.LRs, s.Strategy().LR())
	return nil
}

// Best returns the highest validation Dice recorded, and whether any epoch
// has run.
func (h *History) Best() (float64, bool) {
	if len(h.Epochs) == 0 {
		return 0, false
	}
	best := h.Epochs[0].ValDice
	for _, e := range h.Epochs[1:] {
		if e.ValDice > best {
			best = e.ValDice
		}
	}
	return best, true
}

// LRSchedule applies a cyclic learning-rate schedule before every optimizer
// step, indexed by the global step counter (continuous across resumes).
type LRSchedule struct {
	NopCallback
	Schedule *optim.CyclicLR
}

// OnStepBegin implements Callback.
func (l *LRSchedule) OnStepBegin(s *Session, step int) error {
	s.Strategy().SetLR(l.Schedule.At(step))
	return nil
}

// EarlyStopping stops the session when the validation Dice has not improved
// by MinDelta for more than Patience consecutive epochs. On resume it
// replays the restored history, so a resumed session stops exactly when an
// uninterrupted one would.
type EarlyStopping struct {
	NopCallback
	Patience int     // epochs without improvement tolerated (0 = stop on first)
	MinDelta float64 // minimum improvement to reset the counter

	best float64
	wait int
	seen bool
}

// OnTrainBegin implements Callback: rebuild the best/wait counters from the
// session's (possibly restored) history.
func (e *EarlyStopping) OnTrainBegin(s *Session) error {
	e.best, e.wait, e.seen = 0, 0, false
	for _, st := range s.History() {
		e.observe(s, st.ValDice)
	}
	return nil
}

// OnEpochEnd implements Callback.
func (e *EarlyStopping) OnEpochEnd(s *Session, stats EpochStats) error {
	e.observe(s, stats.ValDice)
	return nil
}

func (e *EarlyStopping) observe(s *Session, dice float64) {
	if !e.seen || dice > e.best+e.MinDelta {
		e.best, e.wait, e.seen = dice, 0, true
		return
	}
	e.wait++
	if e.wait > e.Patience {
		s.RequestStop("early-stopping")
	}
}

// PeriodicCheckpoint writes the full session state to Path every Every
// epochs (and after the final epoch), making the session resumable.
type PeriodicCheckpoint struct {
	NopCallback
	Path  string
	Every int // epochs between checkpoints; ≤ 1 means every epoch
}

// OnEpochEnd implements Callback.
func (p *PeriodicCheckpoint) OnEpochEnd(s *Session, stats EpochStats) error {
	every := p.Every
	if every < 1 {
		every = 1
	}
	if (stats.Epoch+1)%every == 0 || stats.Epoch+1 == s.cfg.Epochs {
		return s.SaveCheckpointFile(p.Path)
	}
	return nil
}

// OnTrainEnd implements Callback: an early-stopped session persists its
// final state too.
func (p *PeriodicCheckpoint) OnTrainEnd(s *Session) error {
	if stopped, _ := s.Stopped(); stopped && s.Epoch() > 0 {
		return s.SaveCheckpointFile(p.Path)
	}
	return nil
}

// StepCheckpoint writes the full session state every EverySteps optimizer
// steps — the step-granular cursor that lets an elastic worker rejoin a
// distributed run losing at most EverySteps−1 steps instead of an epoch.
// The checkpoint fires from OnStepEnd, after the session has advanced its
// cursors, so the saved state includes the step it follows; restoring it
// fast-forwards the reseeded shuffle iterator to the next batch.
type StepCheckpoint struct {
	NopCallback
	Path       string
	EverySteps int // steps between checkpoints; ≤ 1 means every step
}

// OnStepEnd implements Callback.
func (p *StepCheckpoint) OnStepEnd(s *Session, step int, loss float64) error {
	every := p.EverySteps
	if every < 1 {
		every = 1
	}
	if (step+1)%every == 0 {
		return s.SaveCheckpointFile(p.Path)
	}
	return nil
}

// CacheRelease drops every replica model's retained inter-step references
// (the layers' cached inputs and skip activations) between the training
// and evaluation phases of each epoch — the memory-pressure hook, so the
// last training batch's activations can be collected before full-volume
// validation allocates its own.
type CacheRelease struct {
	NopCallback
}

// OnEvalBegin implements Callback.
func (CacheRelease) OnEvalBegin(s *Session, epoch int) error {
	for _, m := range s.Strategy().Models() {
		m.DropCaches()
	}
	return nil
}

// reportFunc adapts the experiment layer's per-epoch reporting protocol:
// the function sees each epoch's statistics and returns false to stop the
// session (Ray.Tune's "reporting callback function").
type reportFunc struct {
	NopCallback
	fn func(EpochStats) bool
}

// ReportFunc wraps a per-epoch report function as a Callback; the function
// returning false requests a stop.
func ReportFunc(fn func(EpochStats) bool) Callback {
	return &reportFunc{fn: fn}
}

// OnEpochEnd implements Callback.
func (r *reportFunc) OnEpochEnd(s *Session, stats EpochStats) error {
	if !r.fn(stats) {
		s.RequestStop("report")
	}
	return nil
}
