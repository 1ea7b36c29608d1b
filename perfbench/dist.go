package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/telemetry"
	"repro/internal/volume"
)

// Ring shape: the `distmis -mode coordinator` network and data (f2 s2 U-Net,
// 16 phantoms of 8³) trained by 2 in-process workers of one compute worker
// each over loopback TCP, global batch 4, the fp16 wire codec and a session
// checkpoint after every step. One coordinated run is distEpochs epochs;
// the timed phase repeats runs, each forming a fresh ring.
const (
	distWidth   = 2
	distCases   = 16
	distDim     = 8
	distBatch   = 4
	distEpochs  = 25
	distCodec   = "fp16"
	distTimeout = 60 * time.Second // bounds one coordinated run
)

// distSteps is how many optimizer steps one coordinated run takes.
func distSteps() int {
	train, _, _ := volume.Split(distCases)
	return distEpochs * (len(train) / distBatch)
}

func distSpec(seed int64, ckptPath string) dist.TrainSpec {
	return dist.TrainSpec{
		Cases: distCases, Dim: distDim, DataSeed: seed,
		BaseFilters: 2, NetSteps: 2, Kernel: 3, UpKernel: 2, NetSeed: seed,
		Loss: "dice", Optimizer: "adam", BaseLR: 1e-2, ScaleLR: true,
		Epochs: distEpochs, GlobalBatch: distBatch, ShuffleSeed: seed,
		CkptPath: ckptPath, CkptEverySteps: 1,
		Codec: distCodec,
	}
}

// wireCounters reads the all-reduce wire counters of the process-wide
// telemetry registry.
type wireCounters struct{ txBytes, txFrames, payload, raw uint64 }

func readWire() wireCounters {
	reg := telemetry.Default()
	codecs := []string{"none", "fp16", "int8"}
	return wireCounters{
		txBytes:  reg.Counter("allreduce_tx_bytes_total", "").Value(),
		txFrames: reg.Counter("allreduce_tx_frames_total", "").Value(),
		payload:  reg.CounterVec("allreduce_payload_bytes_total", "", "codec", codecs...).With(distCodec).Value(),
		raw:      reg.CounterVec("allreduce_payload_raw_bytes_total", "", "codec", codecs...).With(distCodec).Value(),
	}
}

// ringRun is one finished coordinated run.
type ringRun struct {
	res      *dist.Result
	form     time.Duration // NewCoordinator to the gen_start event
	setup    time.Duration // NewCoordinator to rank 0's first completed step
	train    time.Duration // rank 0's first completed step to Run's return
	stepsMS  []float64     // rank 0's intervals between completed steps
	failures int           // reforms, or 1 for a run that returned an error
}

// ringOnce forms a ring, trains one run and waits until every worker has
// exited. With a recorder, each rank's steps are recorded as spans.
func ringOnce(e *env, run int, rec *recorder) (*ringRun, error) {
	start := time.Now()
	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf, telemetry.TracerOptions{})
	spec := distSpec(e.seed, filepath.Join(e.dir, fmt.Sprintf("ring-%d.ckpt", run)))
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Width: distWidth, Spec: spec, Tracer: tracer,
		StepTimeout: distTimeout, Logf: func(string, ...any) {},
	})
	if err != nil {
		tracer.Close()
		return nil, err
	}
	r := &ringRun{}
	var mu sync.Mutex
	first, last := map[int]time.Time{}, map[int]time.Time{}
	hooks := &dist.Hooks{AfterStep: func(gen uint32, rank, step int) error {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if _, ok := first[rank]; !ok {
			first[rank] = now
		}
		if prev, ok := last[rank]; ok {
			if rank == 0 {
				r.stepsMS = append(r.stepsMS, ms(now.Sub(prev)))
			}
			if rec != nil {
				rec.add("dist.step", prev, now.Sub(prev), rank)
			}
		}
		last[rank] = now
		return nil
	}}
	var wg sync.WaitGroup
	workerErrs := make([]error, distWidth)
	for i := range distWidth {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = dist.RunWorker(dist.WorkerConfig{CoordAddr: c.Addr(), Workers: 1, Hooks: hooks})
		}()
	}
	res, runErr := c.Run()
	end := time.Now()
	wg.Wait()
	if err := tracer.Close(); err != nil {
		return nil, err
	}
	r.res = res
	if runErr != nil {
		r.failures = 1
		return r, runErr
	}
	r.failures = res.Reforms
	if err := errors.Join(workerErrs...); err != nil {
		return r, fmt.Errorf("worker: %w", err)
	}
	genStart, err := eventTime(traceBuf.Bytes(), "gen_start")
	if err != nil {
		return r, err
	}
	r.form = genStart
	r.setup = first[0].Sub(start)
	r.train = end.Sub(first[0])
	if rec != nil {
		rec.add("dist.form", start, r.form, run)
		rec.add("dist.train", first[0], r.train, run)
	}
	return r, nil
}

// eventTime returns the time since the tracer started of the first event
// with the given name in a JSONL trace.
func eventTime(jsonl []byte, name string) (time.Duration, error) {
	dec := json.NewDecoder(bytes.NewReader(jsonl))
	for dec.More() {
		var rec telemetry.Record
		if err := dec.Decode(&rec); err != nil {
			return 0, fmt.Errorf("read coordinator trace: %w", err)
		}
		if rec.Name == name {
			return time.Duration(rec.TS), nil
		}
	}
	return 0, fmt.Errorf("coordinator trace has no %s event", name)
}

// ringPass repeats coordinated runs for the timed phase.
type ringPass struct {
	runs   []*ringRun
	peakMB float64
	wire   wireCounters // counters over the pass
}

// runRingPass numbers its runs from offset, so each gets its own
// checkpoint file.
func runRingPass(e *env, o *outcome, offset int, rec *recorder) (*ringPass, error) {
	p := &ringPass{}
	w0 := readWire()
	heap := startHeapSampler()
	until := time.Now().Add(e.seconds)
	for len(p.runs) == 0 || time.Now().Before(until) {
		r, err := ringOnce(e, offset+len(p.runs), rec)
		o.attempted++
		if err != nil {
			heap.peakMB()
			return nil, err
		}
		if r.failures > 0 {
			o.failed++
		}
		res := r.res
		o.check(res.Gens == 1 && res.Reforms == 0, "ring run took %d generations and %d reforms, want 1 and 0", res.Gens, res.Reforms)
		o.check(res.Steps == distSteps(), "ring run took %d steps, want %d", res.Steps, distSteps())
		o.check(res.Width == distWidth, "ring run finished at width %d, want %d", res.Width, distWidth)
		if len(p.runs) > 0 || offset > 0 {
			o.check(res.Hash == o.info["final_hash"], "ring run hash %s differs from the seed's first run %v", res.Hash, o.info["final_hash"])
		} else {
			o.info["final_hash"] = res.Hash
		}
		p.runs = append(p.runs, r)
	}
	p.peakMB = heap.peakMB()
	w1 := readWire()
	p.wire = wireCounters{w1.txBytes - w0.txBytes, w1.txFrames - w0.txFrames, w1.payload - w0.payload, w1.raw - w0.raw}
	return p, nil
}

func (p *ringPass) steps() int {
	n := 0
	for _, r := range p.runs {
		n += r.res.Steps
	}
	return n
}

func (p *ringPass) stepsMS() []float64 {
	var out []float64
	for _, r := range p.runs {
		out = append(out, r.stepsMS...)
	}
	return out
}

func (p *ringPass) e2e() map[string]float64 {
	var setups []float64
	var train time.Duration
	ok := 0
	for _, r := range p.runs {
		setups = append(setups, r.setup.Seconds())
		train += r.train
		if r.failures == 0 {
			ok++
		}
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"throughput_per_s": float64((p.steps()-len(p.runs))*distBatch) / train.Seconds(),
		"latency_p50_ms":   median(p.stepsMS()),
		"peak_heap_mb":     p.peakMB,
		"ok_frac":          ratio(float64(ok), float64(len(p.runs))),
	}
}

// runDist is the dist_ring workload.
func runDist(e *env) (*outcome, error) {
	o := newOutcome()
	p, err := runRingPass(e, o, 0, nil)
	if err != nil {
		return nil, err
	}
	untraced := p.e2e()
	o.e2e = untraced
	latencyInfo(o, "optimizer step on rank 0, checkpoint included", p.stepsMS())
	o.info["ring_runs"] = len(p.runs)
	o.info["steps_per_run"] = distSteps()
	if !e.trace {
		return o, nil
	}

	rec := newRecorder()
	tp, err := runRingPass(e, o, len(p.runs), rec)
	if err != nil {
		return nil, err
	}
	traced := tp.e2e()
	steps := float64(tp.steps())
	l := o.layers
	l["allreduce.tx_bytes_per_step"] = float64(tp.wire.txBytes) / steps
	l["allreduce.tx_frames_per_step"] = float64(tp.wire.txFrames) / steps
	l["allreduce.payload_ratio"] = ratio(float64(tp.wire.payload), float64(tp.wire.raw))
	l["dist.form_ms"] = median(rec.durations("dist.form"))
	l["dist.step_ms.p50"] = median(tp.stepsMS())
	recordOverhead(l, traced, untraced)
	o.rec = rec
	return o, nil
}
