// Command perfbench is the repository's benchmark. It runs one named workload
// — an experiment-parallel or a data-parallel tuning campaign, an open-loop
// serving run, or data-parallel training over a TCP all-reduce ring — from
// inputs made from the seed, checks the outputs, and prints the metrics.
//
// With -trace 0 it prints the end-to-end metrics, measured with no tracing.
// With -trace 1 it repeats the workload with spans recorded in memory around
// the benchmark's own calls into each module and prints the per-layer
// metrics, including the tracing overhead; the spans are written to
// .bench_build/trace/ when the run ends. README.md defines every metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tune_experiment --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// machine and the run. A failed output check prints correct=false and exits
// with status 1; an error that stops the workload exits with status 1
// without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// deadline bounds a whole run: a hang in the program under test must end the
// benchmark with an error rather than stall whoever runs it.
const deadline = 170 * time.Second

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration // length of the timed phase
	trace   bool
	dir     string // private scratch directory inside the checkout
	nproc   int
}

// outcome is what a workload measured and checked.
type outcome struct {
	e2e       map[string]float64 // end-to-end metrics of the untraced pass
	layers    map[string]float64 // per-layer metrics of the traced pass
	attempted int
	failed    int
	errs      []string // failed output checks
	info      map[string]any
	rec       *recorder // spans of the traced pass
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"tune_experiment": func(e *env) (*outcome, error) { return runTune(e, core.StrategyExperiment) },
	"tune_data":       func(e *env) (*outcome, error) { return runTune(e, core.StrategyData) },
	"serve_open":      runServe,
	"dist_ring":       runDist,
}

func main() {
	workload := flag.String("workload", "", "workload to run: tune_experiment, tune_data, serve_open or dist_ring")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace))
}

func run(workload string, seed int64, seconds, trace int) int {
	fn, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", workload, strings.Join(names, ", "))
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", workload, deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	base := ".bench_build"
	dir, err := makeRunDir(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, dir: dir, nproc: runtime.NumCPU()}
	o, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}

	defs := endToEnd
	values := o.e2e
	if e.trace {
		defs, values = perLayer(), o.layers
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		if !e.trace && v <= 0 {
			o.check(false, "end-to-end metric %s is %v, want > 0", d.name, v)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, msg := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	record := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"machine": machineFacts(), "info": o.info, "failed_checks": o.errs,
	}
	if e.trace && o.rec != nil {
		path := filepath.Join(base, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := o.rec.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		record["trace_file"] = path
	}
	result := map[string]any{
		"correct": len(o.errs) == 0, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	}
	if err := printJSON(record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(o.errs) > 0 {
		return 1
	}
	return 0
}

// latencyInfo records the latency sample behind latency_p50_ms in the run
// record: its unit, its size and its tail by the percentile rule.
func latencyInfo(o *outcome, unit string, latMS []float64) {
	v, q := tail(latMS, 0.9)
	o.info["latency_unit"] = unit
	o.info["latency_samples"] = len(latMS)
	o.info["latency_tail_ms"] = v
	o.info["latency_tail_q"] = q
}

// recordOverhead records the tracing overhead: each end-to-end figure of the
// traced pass minus that of the untraced pass.
func recordOverhead(layers, traced, untraced map[string]float64) {
	for _, m := range endToEnd {
		layers["overhead."+m.name] = traced[m.name] - untraced[m.name]
	}
}

// makeRunDir creates a fresh scratch directory for this process under base.
func makeRunDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// machineFacts records what the numbers were measured on.
func machineFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"git_sha":    gitSHA("."),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD of the git repository at root by reading .git
// directly, or returns "unknown" when root is not a git checkout.
func gitSHA(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
