package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/augment"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msd"
	"repro/internal/parallel"
	"repro/internal/raysgd"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/tune"
	"repro/internal/unet"
	"repro/internal/volume"
)

// Campaign shape: one simulated 4-GPU node, the paper U-Net on 16³ phantoms,
// batch 2 per replica, a 4-point grid trained for 2 epochs. Eight training
// cases make both strategies step the same 64 samples per campaign through
// the same conv shapes: 4 trials × 2 epochs × 4 single-GPU steps of 2, or
// 4 trials × 2 epochs × 1 four-replica step of 8.
const (
	tuneGPUs   = 4
	tuneEdge   = 16
	tuneCases  = 16
	tuneTrain  = 8
	tuneVal    = 2
	tuneEpochs = 2
	tuneBatch  = 2
	tuneSetups = 5 // set-ups timed on their own before the timed phase
)

// drawGrid draws the campaign's grid from the paper's search space: two of
// its learning rates, one loss and one augmentation, crossed with both
// optimizers. Every seed's grid therefore holds two Adam and two SGD trials
// and does the same optimizer work; only the values differ.
func drawGrid(seed int64) (*tune.Space, error) {
	cfgs, err := tune.PaperSpace().GridConfigs()
	if err != nil {
		return nil, err
	}
	axes := map[string][]any{}
	seen := map[string]bool{}
	for _, c := range cfgs {
		for k, v := range c {
			if key := fmt.Sprint(k, "=", v); !seen[key] {
				seen[key] = true
				axes[k] = append(axes[k], v)
			}
		}
	}
	for _, vs := range axes {
		sort.Slice(vs, func(i, j int) bool { return fmt.Sprint(vs[i]) < fmt.Sprint(vs[j]) })
	}
	for _, k := range []string{"lr", "loss", "optimizer", "augment"} {
		if len(axes[k]) < 2 {
			return nil, fmt.Errorf("paper space axis %q has %d values, want ≥ 2", k, len(axes[k]))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	lrs := rng.Perm(len(axes["lr"]))
	return tune.NewSpace(
		tune.Grid("lr", axes["lr"][lrs[0]], axes["lr"][lrs[1]]),
		tune.Grid("loss", axes["loss"][rng.Intn(len(axes["loss"]))]),
		tune.Grid("optimizer", axes["optimizer"]...),
		tune.Grid("augment", axes["augment"][rng.Intn(len(axes["augment"]))]),
	)
}

// campaignOptions is the campaign both the core.Run reference and the
// composition below run.
func campaignOptions(strategy core.Strategy, seed int64, workers int, space *tune.Space) core.Options {
	net := unet.PaperConfig()
	net.Seed = seed
	return core.Options{
		Strategy:        strategy,
		GPUs:            tuneGPUs,
		Net:             net,
		Dataset:         msd.Config{Cases: tuneCases, D: tuneEdge, H: tuneEdge, W: tuneEdge, Seed: seed},
		Space:           space,
		Epochs:          tuneEpochs,
		BatchPerReplica: tuneBatch,
		Seed:            seed,
		Workers:         workers,
		MaxTrainCases:   tuneTrain,
		MaxValCases:     tuneVal,
	}
}

// campaignRun is one finished campaign.
type campaignRun struct {
	setup, elapsed time.Duration
	trials         []core.TrialResult
	bestDice       float64
	steps, samples int64
}

// composer runs a campaign from the same public pieces core.Run composes —
// tune.Runner, raysgd, train.Session, train.PeriodicCheckpoint — in the same
// order with the same arguments, so the benchmark can time each step and,
// when traced, wrap the strategy, callbacks, trainable and report. The
// traced run checks its best Dice against core.Run bit for bit.
type composer struct {
	opts    core.Options
	rec     *recorder
	traced  bool
	cl      *cluster.Cluster
	trainS  []*volume.Sample
	valS    []*volume.Sample
	steps   atomic.Int64
	samples atomic.Int64
}

// setUp does what core.Run does before its clock starts: enumerate the
// grid, generate and preprocess the data, and build the cluster.
func (c *composer) setUp() ([]tune.Config, error) {
	configs, err := c.opts.Space.GridConfigs()
	if err != nil {
		return nil, err
	}
	tune.SortConfigs(configs)
	if c.trainS, c.valS, err = prepareData(c.opts, c.rec); err != nil {
		return nil, err
	}
	if c.cl, err = cluster.ForGPUs(c.opts.GPUs); err != nil {
		return nil, err
	}
	return configs, nil
}

func runCampaign(opts core.Options, rec *recorder, traced bool) (*campaignRun, error) {
	c := &composer{opts: opts, rec: rec, traced: traced}
	t0 := time.Now()
	configs, err := c.setUp()
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	start := time.Now()
	var trials []core.TrialResult
	if opts.Strategy == core.StrategyData {
		trials = c.runData(configs)
	} else if trials, err = c.runExperiment(configs); err != nil {
		return nil, err
	}
	r := &campaignRun{setup: setup, elapsed: time.Since(start), trials: trials,
		steps: c.steps.Load(), samples: c.samples.Load()}
	found := false
	for _, tr := range trials {
		if tr.Err == nil && (!found || tr.Dice > r.bestDice) {
			r.bestDice, found = tr.Dice, true
		}
	}
	return r, nil
}

// prepareData generates and preprocesses the phantoms as core.Run does,
// timing each case.
func prepareData(opts core.Options, rec *recorder) (trainS, valS []*volume.Sample, err error) {
	t := time.Now()
	ds, err := msd.Generate(opts.Dataset)
	if err != nil {
		return nil, nil, err
	}
	rec.observe("msd.generate_ms_per_case", ms(time.Since(t))/float64(len(ds.Cases)))
	collect := func(idx []int, limit int) ([]*volume.Sample, error) {
		if limit > 0 && len(idx) > limit {
			idx = idx[:limit]
		}
		out := make([]*volume.Sample, 0, len(idx))
		for _, i := range idx {
			t := time.Now()
			s, err := volume.Preprocess(ds.Cases[i], opts.Net.MinVolume())
			if err != nil {
				return nil, err
			}
			rec.since("volume.preprocess", t, -1)
			out = append(out, s)
		}
		return out, nil
	}
	if trainS, err = collect(ds.Train, opts.MaxTrainCases); err != nil {
		return nil, nil, err
	}
	if valS, err = collect(ds.Val, opts.MaxValCases); err != nil {
		return nil, nil, err
	}
	if len(trainS) == 0 {
		return nil, nil, fmt.Errorf("empty training split")
	}
	return trainS, valS, nil
}

// runData trains the configs one after another, each over all GPUs.
func (c *composer) runData(configs []tune.Config) []core.TrialResult {
	out := make([]core.TrialResult, 0, len(configs))
	for i, cfg := range configs {
		dice, err := c.trainOne(cfg, c.opts.GPUs, c.opts.Workers, "", i, nil)
		res := core.TrialResult{Config: cfg, Dice: dice, Status: "TERMINATED", Err: err}
		if err != nil {
			res.Status = "ERRORED"
		}
		out = append(out, res)
	}
	return out
}

// runExperiment places one single-GPU trial per GPU through tune.Runner,
// sharing the worker budget between the concurrent trials as core.Run does.
func (c *composer) runExperiment(configs []tune.Config) ([]core.TrialResult, error) {
	runner, err := tune.NewRunner(c.cl, c.opts.Scheduler, "dice", "max")
	if err != nil {
		return nil, err
	}
	runner.CheckpointDir = c.opts.CheckpointDir
	concurrent := min(c.cl.TotalGPUs(), len(configs))
	shares := parallel.ShareN(c.opts.Workers, concurrent)
	freeSlots := make([]int, len(shares))
	for i := range freeSlots {
		freeSlots[i] = i
	}
	var slotMu sync.Mutex
	analysis, err := runner.Run(configs, func(ctx *tune.TrialContext) error {
		start := time.Now()
		id := ctx.Trial.ID
		if c.traced {
			defer func() { c.rec.since("tune.trial", start, id) }()
		}
		slotMu.Lock()
		slot := -1
		if n := len(freeSlots); n > 0 {
			slot = freeSlots[n-1]
			freeSlots = freeSlots[:n-1]
		}
		slotMu.Unlock()
		perTrial := shares[len(shares)-1]
		if slot >= 0 {
			perTrial = shares[slot]
			defer func() {
				slotMu.Lock()
				freeSlots = append(freeSlots, slot)
				slotMu.Unlock()
			}()
		}
		trialDir, err := ctx.Dir()
		if err != nil {
			return err
		}
		_, err = c.trainOne(ctx.Trial.Config, 1, perTrial, trialDir, id, func(epoch int, dice float64) bool {
			t := time.Now()
			if c.traced {
				defer c.rec.since("tune.report", t, id)
			}
			return ctx.Report(epoch, map[string]float64{"dice": dice})
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]core.TrialResult, 0, len(analysis.Trials))
	for _, tr := range analysis.Trials {
		res := core.TrialResult{Config: tr.Config, Status: tr.Status().String(), Err: tr.Err()}
		if d, ok := tr.BestMetric("dice", "max"); ok {
			res.Dice = d
		}
		out = append(out, res)
	}
	return out, nil
}

// trainOne trains one configuration through a train.Session over the
// raysgd-selected strategy, as core.Run's trainOne does, and returns the
// final validation Dice.
func (c *composer) trainOne(cfg tune.Config, gpus, workers int, trialDir string, group int,
	report func(epoch int, dice float64) bool) (float64, error) {

	var aug *augment.Pipeline
	if cfg.Has("augment") {
		var err error
		if aug, err = augment.ByName(cfg.Str("augment"), c.opts.Seed); err != nil {
			return 0, err
		}
		if aug.Len() == 0 {
			aug = nil
		}
	}
	tr, err := raysgd.New(raysgd.Config{
		Cluster:         c.cl,
		GPUs:            gpus,
		Net:             c.opts.Net,
		Loss:            cfg.Str("loss"),
		Optimizer:       cfg.Str("optimizer"),
		BaseLR:          cfg.Float("lr"),
		BatchPerReplica: c.opts.BatchPerReplica,
		Seed:            c.opts.Seed,
		Workers:         workers,
		Augment:         aug,
	})
	if err != nil {
		return 0, err
	}
	strat := &timedStrategy{Strategy: tr.Strategy(), c: c, group: group}

	var cbs []train.Callback
	if c.traced {
		cbs = append(cbs, &epochTimer{strat: strat})
		if pr, ok := tr.Strategy().(train.PhaseReporter); ok {
			pr.SetPhaseObserver(func(phase string, d time.Duration) {
				c.rec.add("train."+phase, time.Now().Add(-d), d, group)
			})
		}
	}
	if report != nil {
		cbs = append(cbs, train.ReportFunc(func(st train.EpochStats) bool { return report(st.Epoch, st.ValDice) }))
	}
	if trialDir != "" {
		if err := os.MkdirAll(trialDir, 0o755); err != nil {
			return 0, err
		}
		pc := &train.PeriodicCheckpoint{Path: filepath.Join(trialDir, "session.ckpt"), Every: 1}
		if c.traced {
			cbs = append(cbs, &timedCheckpoint{PeriodicCheckpoint: pc, rec: c.rec, group: group})
		} else {
			cbs = append(cbs, pc)
		}
	}
	sess, err := train.NewSession(train.Config{
		Strategy:    strat,
		Epochs:      c.opts.Epochs,
		GlobalBatch: tr.GlobalBatch(),
		Seed:        c.opts.Seed,
		Augment:     aug,
		Callbacks:   cbs,
	})
	if err != nil {
		return 0, err
	}
	last, err := sess.Fit(c.trainS, c.valS)
	if err != nil {
		return 0, err
	}
	return last.ValDice, nil
}

// timedStrategy times every optimizer step of the wrapped strategy and,
// when traced, the gap between steps that the session spends batching.
type timedStrategy struct {
	train.Strategy
	c       *composer
	group   int
	prevEnd time.Time // end of the previous step of this epoch; zero at epoch start
}

func (s *timedStrategy) Step(inputs, masks *tensor.Tensor) (float64, error) {
	start := time.Now()
	if s.c.traced && !s.prevEnd.IsZero() {
		s.c.rec.add("train.loop", s.prevEnd, start.Sub(s.prevEnd), s.group)
	}
	l, err := s.Strategy.Step(inputs, masks)
	s.c.rec.since("train.step", start, s.group)
	s.prevEnd = time.Now()
	s.c.steps.Add(1)
	s.c.samples.Add(int64(inputs.Dim(0)))
	return l, err
}

// epochTimer times each epoch's evaluation and marks where the first step's
// batching starts. It runs first in the callback chain, so its OnEpochEnd
// closes the evaluation span before reporting and checkpointing begin.
type epochTimer struct {
	train.NopCallback
	strat     *timedStrategy
	evalStart time.Time
}

func (t *epochTimer) OnEpochBegin(*train.Session, int) error {
	t.strat.prevEnd = time.Now()
	return nil
}

func (t *epochTimer) OnEvalBegin(*train.Session, int) error {
	t.evalStart = time.Now()
	t.strat.prevEnd = time.Time{}
	return nil
}

func (t *epochTimer) OnEpochEnd(*train.Session, train.EpochStats) error {
	t.strat.c.rec.since("train.eval", t.evalStart, t.strat.group)
	return nil
}

// timedCheckpoint times each per-epoch checkpoint write and records the
// size of the file it wrote.
type timedCheckpoint struct {
	*train.PeriodicCheckpoint
	rec   *recorder
	group int
}

func (p *timedCheckpoint) OnEpochEnd(s *train.Session, st train.EpochStats) error {
	start := time.Now()
	err := p.PeriodicCheckpoint.OnEpochEnd(s, st)
	p.rec.since("ckpt.save", start, p.group)
	if fi, serr := os.Stat(p.Path); serr == nil {
		p.rec.observe("ckpt.bytes", float64(fi.Size()))
	}
	return err
}

// runTune is the tune_experiment and tune_data workload.
func runTune(e *env, strategy core.Strategy) (*outcome, error) {
	space, err := drawGrid(e.seed)
	if err != nil {
		return nil, err
	}
	opts := campaignOptions(strategy, e.seed, e.nproc, space)
	o := newOutcome()
	campaign := 0
	nextOpts := func() core.Options {
		campaign++
		op := opts
		if strategy == core.StrategyExperiment {
			op.CheckpointDir = filepath.Join(e.dir, fmt.Sprintf("campaign-%d", campaign))
		}
		return op
	}
	checkTrials := func(what string, r []core.TrialResult) {
		o.attempted += len(r)
		for _, tr := range r {
			if tr.Status != tune.Terminated.String() || tr.Err != nil {
				o.failed++
				o.check(false, "%s: trial %v ended %s (err %v), want TERMINATED", what, tr.Config, tr.Status, tr.Err)
			}
		}
	}

	// A campaign's set-up takes milliseconds, so it is also timed on its own
	// a few times before the timed phase.
	var setups []float64
	for range tuneSetups {
		t := time.Now()
		if _, err := (&composer{opts: opts, rec: newRecorder()}).setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	// The untraced pass: campaigns until the timed phase is over.
	rec := newRecorder()
	heap := startHeapSampler()
	var runs []*campaignRun
	// Campaigns run back to back while at least half a campaign's time is
	// left of the timed phase. A traced run times one untraced campaign, for
	// the overhead figures.
	start := time.Now()
	for len(runs) == 0 || (!e.trace && e.seconds-time.Since(start) >= time.Since(start)/time.Duration(2*len(runs))) {
		r, err := runCampaign(nextOpts(), rec, false)
		if err != nil {
			heap.peakMB()
			return nil, err
		}
		checkTrials("campaign", r.trials)
		if len(runs) > 0 {
			o.check(math.Float64bits(r.bestDice) == math.Float64bits(runs[0].bestDice),
				"campaign %d best Dice %v differs from campaign 1's %v under the same seed", len(runs)+1, r.bestDice, runs[0].bestDice)
		}
		runs = append(runs, r)
	}
	untraced := tuneE2E(runs, rec, heap.peakMB(), setups)
	o.e2e = untraced
	latencyInfo(o, "optimizer step", rec.durations("train.step"))
	o.info["campaigns"] = len(runs)
	o.info["best_dice"] = runs[0].bestDice
	o.info["trials_per_h"] = float64(len(runs)*len(runs[0].trials)) / sumElapsed(runs).Hours()
	o.info["samples_per_campaign"] = runs[0].samples
	if !e.trace {
		return o, nil
	}

	// The traced run adds the core.Run reference and a traced campaign.
	t0 := time.Now()
	ref, err := core.Run(nextOpts())
	if err != nil {
		return nil, err
	}
	checkTrials("core.Run", ref.Trials)
	o.info["core_run_setup_s"] = (time.Since(t0) - ref.Elapsed).Seconds()
	o.info["core_run_elapsed_s"] = ref.Elapsed.Seconds()

	trec := newRecorder()
	before := readAllocCounters()
	theap := startHeapSampler()
	tr, err := runCampaign(nextOpts(), trec, true)
	if err != nil {
		theap.peakMB()
		return nil, err
	}
	traced := tuneE2E([]*campaignRun{tr}, trec, theap.peakMB(), nil)
	alloc := before.to(readAllocCounters())
	checkTrials("traced campaign", tr.trials)
	o.check(math.Float64bits(tr.bestDice) == math.Float64bits(ref.BestDice),
		"traced campaign best Dice %v differs from core.Run's %v", tr.bestDice, ref.BestDice)
	o.check(math.Float64bits(tr.bestDice) == math.Float64bits(runs[0].bestDice),
		"traced campaign best Dice %v differs from the untraced campaign's %v", tr.bestDice, runs[0].bestDice)

	l := o.layers
	steps := float64(tr.steps)
	stepMS := trec.durations("train.step")
	l["train.step_ms.p50"] = median(stepMS)
	l["train.step_ms.p90"], o.info["train_step_tail_q"] = tail(stepMS, 0.9)
	l["train.forward_ms"] = median(trec.durations("train.forward"))
	l["train.backward_ms"] = median(trec.durations("train.backward"))
	l["train.optim_ms"] = median(trec.durations("train.optim"))
	l["train.loop_ms"] = median(trec.durations("train.loop"))
	l["train.eval_ms"] = median(trec.durations("train.eval"))
	if strategy == core.StrategyExperiment {
		trialMS := trec.durations("tune.trial")
		l["tune.trial_s.p50"] = median(trialMS) / 1000
		l["tune.slot_busy_frac"] = ratio(sum(trialMS), float64(min(tuneGPUs, len(tr.trials)))*ms(tr.elapsed))
		l["tune.report_wait_ms"] = median(trec.durations("tune.report"))
		l["ckpt.save_ms"] = median(trec.durations("ckpt.save"))
		l["ckpt.bytes"] = mean(trec.observed("ckpt.bytes"))
	} else {
		allreduce := trec.durations("train.allreduce")
		l["mirrored.allreduce_ms"] = median(allreduce)
		l["mirrored.allreduce_share"] = ratio(sum(allreduce), sum(stepMS))
	}
	l["tensor.step_alloc_mb"] = alloc.mb / steps
	l["tensor.step_allocs"] = alloc.objects / steps
	l["tensor.scratch_fresh_per_step"] = alloc.scratchFresh / steps
	l["runtime.gc_cpu_frac"] = alloc.gcCPUFrac
	l["msd.generate_ms_per_case"] = mean(trec.observed("msd.generate_ms_per_case"))
	l["volume.preprocess_ms_per_case"] = median(trec.durations("volume.preprocess"))
	recordOverhead(l, traced, untraced)
	if err := trainLayers(e, l, opts.Net); err != nil {
		return nil, err
	}
	o.rec = trec
	return o, nil
}

func sumElapsed(runs []*campaignRun) time.Duration {
	var d time.Duration
	for _, r := range runs {
		d += r.elapsed
	}
	return d
}

// tuneE2E turns finished campaigns and any set-ups timed on their own into
// the end-to-end metrics.
func tuneE2E(runs []*campaignRun, rec *recorder, peakMB float64, setups []float64) map[string]float64 {
	var samples int64
	trials, ok := 0, 0
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		samples += r.samples
		for _, tr := range r.trials {
			trials++
			if tr.Status == tune.Terminated.String() && tr.Err == nil {
				ok++
			}
		}
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"throughput_per_s": float64(samples) / sumElapsed(runs).Seconds(),
		"latency_p50_ms":   median(rec.durations("train.step")),
		"peak_heap_mb":     peakMB,
		"ok_frac":          ratio(float64(ok), float64(trials)),
	}
}
