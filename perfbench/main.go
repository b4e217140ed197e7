// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload repro|serve_zipf \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures a workload's end-to-end metrics with no
// instrumentation at all. With --trace 1 it runs the same workload again,
// recording a span around every public call the benchmark makes into the
// program's packages, and reports per-layer metrics from those spans. Every
// program output is checked against an independent reference: the plain
// interpreter (internal/vm) run once per distinct program during set-up.
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct","attempted","failed","metrics"}. Any oracle
// mismatch sets "correct" to false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
)

// stateDir holds everything a run writes: span dumps and the per-checkout
// result history. It is relative to the working directory, which the
// wrapper sets to the checkout root.
const stateDir = ".bench_build"

// metricValue is one metric of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	mu                sync.Mutex // guards the mismatch fields
	// mismatches keeps the first oracle mismatches for the report;
	// mismatchCount counts all of them.
	mismatches    []string
	mismatchCount int
	// e2e and layers map metric names to values; units come from the
	// registries in metrics.go.
	e2e    map[string]float64
	layers map[string]float64
	// notes are extra report lines (sample counts, unsupported
	// percentiles, tracing overhead, split verdicts).
	notes []string
	// tablesSHA is the digest of repro's rendered tables ("" elsewhere).
	tablesSHA string
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// Keep the report bounded: the first few mismatches say what broke.
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
	o.mismatchCount++
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload: repro or serve_zipf")
	seed := flag.Int64("seed", 1, "input seed (repro is deterministic and ignores it)")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	host, err := stampHost()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workloadName, *seed, *seconds, *traced)
	fmt.Printf("host %s\n", host)

	cfg := runConfig{name: *workloadName, seed: *seed, seconds: *seconds, traced: *traced == 1, host: host}
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workloadName, err)
		return 1
	}
	checkRepeats(cfg, out)
	if cfg.traced {
		splitNotes(cfg, out)
	}

	res := result{
		Correct:   out.mismatchCount == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	reg, vals := e2eMetrics, out.e2e
	if cfg.traced {
		reg, vals = layerMetrics, out.layers
	}
	for _, m := range reg {
		v, ok := vals[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s produced no value for %s\n", *workloadName, m.name)
			return 1
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	printReport(cfg, out, reg)
	appendHistory(cfg, out, res)

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	name    string
	seed    int64
	seconds int
	traced  bool
	host    hostFacts
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"repro":      runRepro,
	"serve_zipf": runServe,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
