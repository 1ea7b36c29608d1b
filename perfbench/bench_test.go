package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/tune"
	"repro/internal/unet"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helpers must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantV float64
		wantQ float64
	}{
		{n: 1000, wantV: 900, wantQ: 0.9},    // p90 has 100 samples above it
		{n: 100, wantV: 90, wantQ: 0.9},      // p90 has exactly 10 above it
		{n: 64, wantV: 54, wantQ: 54.0 / 64}, // clamped below p90: 10 above rank 54
		{n: 30, wantV: 20, wantQ: 20.0 / 30},
		{n: 20, wantV: 10.5, wantQ: 0.5}, // no percentile above the median has 10 beyond it
		{n: 5, wantV: 3, wantQ: 0.5},
	} {
		v, q := tail(seq(tc.n), 0.9)
		if v != tc.wantV || math.Abs(q-tc.wantQ) > 1e-12 {
			t.Errorf("tail of %d samples = %v at q %v, want %v at q %v", tc.n, v, q, tc.wantV, tc.wantQ)
		}
		above := 0
		for _, x := range seq(tc.n) {
			if x > v {
				above++
			}
		}
		if q > 0.5 && above < minBeyond {
			t.Errorf("tail of %d samples leaves %d samples above it, want ≥ %d", tc.n, above, minBeyond)
		}
	}
	if v, q := tail(nil, 0.9); v != 0 || q != 0 {
		t.Errorf("tail of no samples = %v, %v, want 0, 0", v, q)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestScheduleIsSeedDeterministic(t *testing.T) {
	const n, dur = 600, 100 * time.Second
	a := openLoopSchedule(7, n, dur, 3, 3)
	if !reflect.DeepEqual(a, openLoopSchedule(7, n, dur, 3, 3)) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if reflect.DeepEqual(a, openLoopSchedule(8, n, dur, 3, 3)) {
		t.Fatal("seeds 7 and 8 give the same schedule")
	}
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	large := 0
	var gaps []float64
	for i, x := range a {
		if x.at < 0 || x.at >= dur || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, x.at, dur)
		}
		if x.vol < 0 || x.vol >= 6 {
			t.Fatalf("arrival %d asks for volume %d of 6", i, x.vol)
		}
		if x.vol >= 3 {
			large++
		}
		if i > 0 {
			gaps = append(gaps, (x.at - a[i-1].at).Seconds())
		}
		if i%serveBlock == serveBlock-1 {
			n := 0
			for _, y := range a[i+1-serveBlock : i+1] {
				if y.vol >= 3 {
					n++
				}
			}
			if n != serveLarge {
				t.Fatalf("block ending at %d holds %d large requests, want %d", i, n, serveLarge)
			}
		}
	}
	if want := n / serveBlock * serveLarge; large < want || large > want+serveLarge {
		t.Errorf("%d large requests of %d, want %d", large, n, want)
	}
	// Poisson gaps are exponential: their standard deviation equals their mean.
	m := mean(gaps)
	var v float64
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	if cv := math.Sqrt(v/float64(len(gaps))) / m; math.Abs(cv-1) > 0.15 {
		t.Errorf("inter-arrival coefficient of variation %.2f, want about 1", cv)
	}
}

func gridOf(t *testing.T, seed int64) []tune.Config {
	t.Helper()
	s, err := drawGrid(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := s.GridConfigs()
	if err != nil {
		t.Fatal(err)
	}
	tune.SortConfigs(cfgs)
	return cfgs
}

func TestGridIsSeedDeterministic(t *testing.T) {
	paper, err := tune.PaperSpace().GridConfigs()
	if err != nil {
		t.Fatal(err)
	}
	inPaper := map[string]bool{}
	for _, c := range paper {
		inPaper[fmt.Sprint(c)] = true
	}
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		a, b := gridOf(t, seed), gridOf(t, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d draws two different grids", seed)
		}
		if len(a) != 4 {
			t.Fatalf("seed %d draws %d configs, want 4", seed, len(a))
		}
		opts := map[string]int{}
		for _, c := range a {
			if !inPaper[fmt.Sprint(c)] {
				t.Fatalf("seed %d draws %v, which is not in the paper space", seed, c)
			}
			opts[c.Str("optimizer")]++
		}
		if opts["adam"] != 2 || opts["sgd"] != 2 {
			t.Fatalf("seed %d optimizers %v, want two of each", seed, opts)
		}
		distinct[fmt.Sprint(a)] = true
	}
	if len(distinct) < 3 {
		t.Errorf("10 seeds draw only %d distinct grids", len(distinct))
	}
}

func TestConvFLOPsMatchCostUNet(t *testing.T) {
	small := unet.PaperConfig()
	small.BaseFilters, small.Steps = 4, 3
	for _, tc := range []struct {
		cfg  unet.Config
		edge int
	}{
		{unet.PaperConfig(), 16},
		{unet.PaperConfig(), 32},
		{small, 8},
	} {
		convs, err := unetConvs(tc.cfg, tc.edge)
		if err != nil {
			t.Fatal(err)
		}
		var specs []string
		var flops float64
		for _, c := range convs {
			specs = append(specs, c.spec.String())
			flops += float64(c.calls) * c.fwdFLOPs(1)
		}
		var want []string
		for _, s := range tc.cfg.ConvShapes() {
			want = append(want, s.String())
		}
		if !reflect.DeepEqual(specs, want) {
			t.Errorf("shapes %v, want ConvShapes %v", specs, want)
		}
		cost, err := gpusim.CostUNet(tc.cfg, tc.edge, tc.edge, tc.edge)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(flops-cost.ForwardFLOPs) > 1e-9*cost.ForwardFLOPs {
			t.Errorf("f%d s%d at %d³: conv FLOPs %v, gpusim.CostUNet %v", tc.cfg.BaseFilters, tc.cfg.Steps, tc.edge, flops, cost.ForwardFLOPs)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	printed := func(defs []metricDef) map[string]bool {
		out := map[string]bool{}
		for _, d := range defs {
			out[d.name+" "+d.unit] = true
		}
		return out
	}
	compare := func(what string, listed []struct{ Name, Unit string }, printed map[string]bool) {
		for _, m := range listed {
			key := m.Name + " " + m.Unit
			if !printed[key] {
				t.Errorf("BENCHMARK.json %s lists %q, which the benchmark does not print", what, key)
			}
			delete(printed, key)
		}
		for key := range printed {
			t.Errorf("the benchmark prints %s metric %q, which BENCHMARK.json does not list", what, key)
		}
	}
	compare("end_to_end", b.EndToEnd, printed(endToEnd))
	compare("per_layer", b.PerLayer, printed(perLayer()))
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark runs %d", wl, len(workloads))
	}
}
