package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/msd"
	"repro/internal/patch"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

// Serving shape: the eval-mode paper U-Net behind an in-process server with
// 16³ non-overlapping windows, 2 replicas and micro-batches of up to 4
// windows. Requests are 16³ volumes (one window) or 32³ volumes (eight),
// drawn from a few distinct phantoms of each size.
const (
	serveWindow    = 16
	serveLargeEdge = 32
	serveDistinct  = 3  // distinct phantoms of each size
	serveBlock     = 12 // every serveBlock requests hold serveLarge large ones
	serveLarge     = 1
	serveReplicas  = 2
	serveMaxBatch  = 4
	serveSetups    = 3 // set-ups timed per run; setup_s is their median

	// serveRate is the fixed open-loop offered load: about a third of the
	// capacity at this mix on a 2-core Xeon when the benchmark was written.
	// Large requests are few and the load is low enough that the median
	// request is a 16³ one that did not queue behind a 32³ one, even when
	// the machine runs a third slower; at half the capacity it did queue on
	// slow runs, and the median moved with the machine's speed.
	serveRate = 4.0 // requests per second
	// serveLimit is the latency limit: a request that fails, is refused, or
	// completes later than this after its due time misses it.
	serveLimit = 2 * time.Second
	// The capacity phase keeps serveClients closed-loop clients busy for
	// serveCapacityShare of the timed phase, and counts after serveRamp.
	serveClients       = 8
	serveCapacityShare = 0.5
	serveRamp          = 500 * time.Millisecond
)

// arrival is one scheduled request of the open-loop generator.
type arrival struct {
	at  time.Duration // due time, from the start of the phase
	vol int           // index into the request volumes
}

// openLoopSchedule draws n arrivals of a Poisson process over dur, given
// that it has n arrivals in dur: n independent uniform times, sorted. Every
// block of serveBlock consecutive requests holds serveLarge of the nLarge
// large volumes (indices nSmall…nSmall+nLarge−1), at drawn positions, and
// small volumes elsewhere. So every seed offers the same load and mix, and
// only the arrival times, the order and the volumes drawn differ. The same
// seed gives the same schedule.
func openLoopSchedule(seed int64, n int, dur time.Duration, nSmall, nLarge int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(at)
	out := make([]arrival, n)
	var block []int
	for i := range out {
		if i%serveBlock == 0 {
			block = rng.Perm(serveBlock)
		}
		vol := rng.Intn(nSmall)
		if block[i%serveBlock] < serveLarge {
			vol = nSmall + rng.Intn(nLarge)
		}
		out[i] = arrival{at: at[i], vol: vol}
	}
	return out
}

// serveVolumes generates the distinct request volumes: small ones first.
func serveVolumes(seed int64, minDiv int) ([]*volume.Sample, error) {
	var out []*volume.Sample
	for _, edge := range []int{serveWindow, serveLargeEdge} {
		ds, err := msd.Generate(msd.Config{Cases: serveDistinct, D: edge, H: edge, W: edge, Seed: seed + int64(edge)})
		if err != nil {
			return nil, err
		}
		for _, c := range ds.Cases {
			s, err := volume.Preprocess(c, minDiv)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// servingNet is the served network: the paper U-Net seeded by the workload.
func servingNet(seed int64) unet.Config {
	cfg := unet.PaperConfig()
	cfg.Seed = seed
	return cfg
}

// timedModel times every micro-batch a replica computes.
type timedModel struct {
	*unet.UNet
	rec *recorder
}

func (m timedModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	t := time.Now()
	y := m.UNet.Infer(x)
	m.rec.since("serve.infer", t, -1)
	return y
}

// newServer builds the server; with a recorder, every replica is wrapped to
// time its micro-batches.
func newServer(e *env, rec *recorder) (*serve.Server, error) {
	cfg := servingNet(e.seed)
	return serve.New(serve.Config{
		Window:        patch.SlidingWindow{Patch: [3]int{serveWindow, serveWindow, serveWindow}, Stride: [3]int{serveWindow, serveWindow, serveWindow}},
		Replicas:      serveReplicas,
		MaxBatch:      serveMaxBatch,
		Workers:       e.nproc,
		InChannels:    cfg.InChannels,
		ExtentDivisor: cfg.MinVolume(),
	}, func() (serve.Model, error) {
		u, err := unet.New(cfg)
		if err != nil {
			return nil, err
		}
		u.SetTraining(false)
		if rec != nil {
			return timedModel{UNet: u, rec: rec}, nil
		}
		return u, nil
	})
}

// setUpServer generates the request volumes, builds the server and sends
// one request of each size, so pools and caches are warm before timing.
func setUpServer(e *env, rec *recorder) (*serve.Server, []*volume.Sample, error) {
	vols, err := serveVolumes(e.seed, servingNet(e.seed).MinVolume())
	if err != nil {
		return nil, nil, err
	}
	srv, err := newServer(e, rec)
	if err != nil {
		return nil, nil, err
	}
	for _, v := range []*volume.Sample{vols[0], vols[serveDistinct]} {
		if _, err := srv.Segment(v.Input); err != nil {
			srv.Close()
			return nil, nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return srv, vols, nil
}

// servePass is one measured pass: the open-loop phase, then the capacity
// phase.
type servePass struct {
	latMS     []float64 // per open-loop request, from its due time; +Inf if it failed
	missed    int       // open-loop requests that failed or missed the limit
	lateMax   time.Duration
	capacity  float64 // requests per second with the server kept busy
	capReqs   int
	capFailed int
	peakMB    float64
	alloc     allocDelta
	stats     serve.Stats
	first     map[int]*tensor.Tensor // one response to each volume
}

func runServePass(e *env, srv *serve.Server, vols []*volume.Sample, rec *recorder) (*servePass, error) {
	open := time.Duration(float64(e.seconds) * (1 - serveCapacityShare))
	sched := openLoopSchedule(e.seed, int(serveRate*open.Seconds()), open, serveDistinct, serveDistinct)
	p := &servePass{latMS: make([]float64, len(sched)), first: map[int]*tensor.Tensor{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := readAllocCounters()
	heap := startHeapSampler()
	t0 := time.Now()
	for i, a := range sched {
		due := t0.Add(a.at)
		time.Sleep(time.Until(due))
		sent := time.Now()
		p.lateMax = max(p.lateMax, sent.Sub(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := srv.Segment(vols[a.vol].Input)
			lat := time.Since(due)
			if rec != nil {
				rec.add("serve.request", due, lat, i)
			}
			mu.Lock()
			defer mu.Unlock()
			p.latMS[i] = ms(lat)
			if err != nil {
				p.latMS[i] = math.Inf(1)
			} else if p.first[a.vol] == nil {
				p.first[a.vol] = out
			}
			if err != nil || lat > serveLimit {
				p.missed++
			}
		}()
	}
	wg.Wait()
	p.alloc = before.to(readAllocCounters())
	p.stats = srv.Stats()

	// Capacity: closed-loop clients keep both replicas busy. The server's
	// window count is read once they have, and again when they stop, so the
	// ramp-up and the drain are not counted; the window rate divided by the
	// mix's windows per request is the request rate the server sustains.
	capDur := time.Duration(float64(e.seconds) * serveCapacityShare)
	start := time.Now()
	end := start.Add(capDur)
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*serveClients + int64(c)))
			for i := 0; time.Now().Before(end); i++ {
				vol := rng.Intn(serveDistinct)
				if (i+c)%serveBlock < serveLarge {
					vol = serveDistinct + rng.Intn(serveDistinct)
				}
				out, err := srv.Segment(vols[vol].Input)
				mu.Lock()
				p.capReqs++
				if err != nil {
					p.capFailed++
				} else if p.first[vol] == nil {
					p.first[vol] = out
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(serveRamp)
	from, fromT := srv.Stats(), time.Now()
	time.Sleep(time.Until(end))
	to, toT := srv.Stats(), time.Now()
	wg.Wait()
	perLarge := (serveLargeEdge / serveWindow) * (serveLargeEdge / serveWindow) * (serveLargeEdge / serveWindow)
	windowsPerRequest := float64(serveBlock-serveLarge+serveLarge*perLarge) / serveBlock
	p.capacity = float64(to.Patches-from.Patches) / toT.Sub(fromT).Seconds() / windowsPerRequest
	p.peakMB = heap.peakMB()

	// Every distinct volume gets a response to check, requested now if the
	// timed phase drew none.
	for vol := range vols {
		if p.first[vol] == nil {
			out, err := srv.Segment(vols[vol].Input)
			if err != nil {
				return nil, fmt.Errorf("request for volume %d: %w", vol, err)
			}
			p.first[vol] = out
		}
	}
	return p, nil
}

// e2e turns a pass into the end-to-end metrics, with the set-up time.
func (p *servePass) e2e(setup float64) map[string]float64 {
	n := len(p.latMS) + p.capReqs
	return map[string]float64{
		"setup_s":          setup,
		"throughput_per_s": p.capacity,
		"latency_p50_ms":   median(p.latMS),
		"peak_heap_mb":     p.peakMB,
		"ok_frac":          ratio(float64(n-p.missed-p.capFailed), float64(n)),
	}
}

// checkResponses compares one response to each distinct volume bit for bit
// with a standalone patch.SlidingWindow.Infer on the same weights.
func checkResponses(e *env, o *outcome, p *servePass, vols []*volume.Sample) error {
	ref, err := unet.New(servingNet(e.seed))
	if err != nil {
		return err
	}
	ref.SetTraining(false)
	sw := patch.SlidingWindow{Patch: [3]int{serveWindow, serveWindow, serveWindow}, Stride: [3]int{serveWindow, serveWindow, serveWindow}}
	for vol, got := range p.first {
		want, err := sw.Infer(ref, vols[vol])
		if err != nil {
			return err
		}
		gd, wd := got.Data(), want.Data()
		same := len(gd) == len(wd)
		for i := 0; same && i < len(gd); i++ {
			same = math.Float32bits(gd[i]) == math.Float32bits(wd[i])
		}
		o.check(same, "response to volume %d differs from patch.SlidingWindow.Infer", vol)
	}
	return nil
}

// runServe is the serve_open workload.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var srv *serve.Server
	var vols []*volume.Sample
	for i := range serveSetups {
		t := time.Now()
		s, v, err := setUpServer(e, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < serveSetups-1 {
			s.Close()
		} else {
			srv, vols = s, v
		}
	}
	p, err := runServePass(e, srv, vols, nil)
	srv.Close()
	if err != nil {
		return nil, err
	}
	if err := checkResponses(e, o, p, vols); err != nil {
		return nil, err
	}
	untraced := p.e2e(median(setups))
	o.e2e = untraced
	o.attempted = len(p.latMS) + p.capReqs
	o.failed = p.missed + p.capFailed
	latencyInfo(o, "request, timed from its due time", p.latMS)
	o.info["offered_rps"] = serveRate
	o.info["gen_late_ms_max"] = ms(p.lateMax)
	o.info["capacity_requests"] = p.capReqs
	if !e.trace {
		return o, nil
	}

	rec := newRecorder()
	t := time.Now()
	tsrv, tvols, err := setUpServer(e, rec)
	if err != nil {
		return nil, err
	}
	tsetup := time.Since(t).Seconds()
	tp, err := runServePass(e, tsrv, tvols, rec)
	tsrv.Close()
	if err != nil {
		return nil, err
	}
	if err := checkResponses(e, o, tp, tvols); err != nil {
		return nil, err
	}
	o.attempted += len(tp.latMS) + tp.capReqs
	o.failed += tp.missed + tp.capFailed
	traced := tp.e2e(tsetup)

	l := o.layers
	st := tp.stats
	l["serve.queue_ms.p50"] = ms(st.Queue.P50)
	l["serve.queue_ms.p90"] = ms(st.Queue.P90)
	l["serve.dispatch_ms.p90"] = ms(st.Batch.P90)
	l["serve.compute_ms.p50"] = ms(st.Compute.P50)
	l["serve.compute_ms.p90"] = ms(st.Compute.P90)
	l["serve.blend_ms.p90"] = ms(st.Blend.P90)
	l["serve.batch_fill"] = st.AvgBatchFill / serveMaxBatch
	l["tensor.req_alloc_mb"] = tp.alloc.mb / float64(len(tp.latMS))
	l["runtime.gc_cpu_frac"] = tp.alloc.gcCPUFrac
	l["gen.late_ms.max"] = ms(tp.lateMax)
	recordOverhead(l, traced, untraced)
	if err := inferLayers(e, l, servingNet(e.seed)); err != nil {
		return nil, err
	}
	o.rec = rec
	return o, nil
}
