package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
)

// historyFile is the checkout's append-only result log, one JSON record
// per run.
var historyFile = filepath.Join(stateDir, "perfbench-history.jsonl")

type historyRecord struct {
	Host      hostFacts          `json:"host"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	TablesSHA string             `json:"tables_sha256,omitempty"`
}

func readHistory() []historyRecord {
	f, err := os.Open(historyFile)
	if err != nil {
		return nil // no earlier run in this checkout
	}
	defer f.Close()
	var out []historyRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r historyRecord
		if json.Unmarshal(sc.Bytes(), &r) == nil {
			out = append(out, r)
		}
	}
	return out
}

func appendHistory(c runConfig, out *outcome, res result) {
	rec := historyRecord{Host: c.host, Workload: c.name, Seed: c.seed, Trace: c.traced,
		Correct: res.Correct, Metrics: map[string]float64{}, TablesSHA: out.tablesSHA}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
		return
	}
	f, err := os.OpenFile(historyFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
		return
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: history: %v\n", err)
	}
}

// checkRepeats holds what must repeat exactly across every run of the
// same code in this checkout: repro's rendered tables, traced or not, and
// on a traced run each per-layer count flagged exact for the workload.
// Runs on other hosts count too: none of these depends on the host.
func checkRepeats(c runConfig, out *outcome) {
	for _, h := range readHistory() {
		if h.Workload != c.name || h.Host.Source != c.host.Source {
			continue
		}
		if out.tablesSHA != "" && h.TablesSHA != "" && h.TablesSHA != out.tablesSHA {
			out.mismatch("rendered tables differ from an earlier run of the same code (seed %d, trace %v)", h.Seed, h.Trace)
		}
		if !c.traced || !h.Trace {
			continue
		}
		for _, m := range layerMetrics {
			if v, ok := h.Metrics[m.name]; ok && m.isExact(c.name) && v != out.layers[m.name] {
				out.mismatch("%s = %v, an earlier run of the same code had %v", m.name, out.layers[m.name], v)
			}
		}
	}
}

// untracedMedian returns the median of metric over the untraced runs of
// workload recorded on this host with this code, and how many there were.
// A run from another host is never compared.
func untracedMedian(c runConfig, metric string) (float64, int) {
	var xs []float64
	for _, h := range readHistory() {
		if h.Workload == c.name && !h.Trace && h.Correct && sameHost(h.Host, c.host) && h.Host.Source == c.host.Source {
			if v, ok := h.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return median(xs), len(xs)
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count, so peak_rss_mb covers the measurement and not set-up
// garbage. Where the kernel cannot reset it, the peak spans the process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS not reset: %v\n", err)
	}
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes) since
// the last resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// splitNotes confirms or refutes the baseline splits the benchmark was
// defined against: on repro, that gcc's static analysis (run twice per
// reproduction) dominates repro_s; on serve_zipf, that a gcc request
// spends more in cfg.VerifyProgram and dynamo.New than in the guest run.
func splitNotes(c runConfig, out *outcome) {
	l := out.layers
	switch c.name {
	case "repro":
		base, n := untracedMedian(c, "p50_ms")
		what := fmt.Sprintf("untraced repro_s median of %d run(s)", n)
		if n == 0 {
			base, what = l["trace.wall_s"]*1000, "traced repro_s (no untraced run recorded on this host)"
			l["trace.overhead_ratio"] = 0
		} else {
			l["trace.overhead_ratio"] = l["trace.wall_s"] * 1000 / base
			out.note("tracing overhead: traced %.2f s vs untraced median %.2f s (n=%d)", l["trace.wall_s"], base/1000, n)
		}
		share := 2 * l["dataflow.analyze_ms.gcc"] / base
		out.note("split: gcc dataflow.analyze_ms %.0f; x2 analyses per reproduction = %.0f%% of %s (%.2f s): %s",
			l["dataflow.analyze_ms.gcc"], 100*share, what, base/1000, verdict(share > 0.5))
	case "serve_zipf":
		v, nw, r := l["cfg.verify_ms.gcc"], l["dynamo.new_ms.gcc"], l["dynamo.run_ms.gcc"]
		out.note("split: gcc request medians cfg.verify_ms %.1f, dynamo.new_ms %.1f, dynamo.run_ms %.1f: %s",
			v, nw, r, verdict(v > r && nw > r))
	}
}

func verdict(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "refuted"
}

// e2eNotes sets the time metrics from one run's unit latencies (in ms)
// and adds report lines for them under the names the workloads are
// specified with, each with its unit and sample count. p99_ms is reported
// only when at least ten samples lie beyond it; otherwise the highest
// percentile that has them is.
func e2eNotes(out *outcome, units string, lat []float64, elapsed float64, setups []float64) {
	n := len(lat)
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = median(lat)
	out.e2e["rps"] = float64(n) / elapsed
	out.note("setup_s %.4f s (median of %d set-ups %.4f)", out.e2e["setup_s"], len(setups), setups)
	out.note("rps %.4f 1/s (%d %s completed in %.3f s)", out.e2e["rps"], n, units, elapsed)
	out.note("p50_ms %.4f ms (n=%d)", out.e2e["p50_ms"], n)
	if tailOK(n, 0.99) {
		out.note("p99_ms %.4f ms (n=%d, %d beyond)", quantile(lat, 0.99), n, n/100)
	} else {
		out.note("p99_ms not reported: n=%d leaves fewer than 10 samples beyond it", n)
		if tailOK(n, 0.9) {
			out.note("p90_ms %.4f ms (n=%d, %d beyond)", quantile(lat, 0.9), n, n/10)
		}
	}
	out.note("fail_ratio %.4f (%d of %d attempted failed)", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	out.note("peak_rss_mb %.1f MB", out.e2e["peak_rss_mb"])
}

// printReport writes the human-readable lines: on a traced run every
// per-layer metric with its unit and whether it repeats exactly; then the
// notes, which carry the end-to-end lines, and any oracle mismatches.
func printReport(c runConfig, out *outcome, reg []metricDef) {
	if c.traced {
		for _, m := range reg {
			flag := "timing-dependent"
			if m.isExact(c.name) {
				flag = "exact"
			}
			fmt.Printf("  %-32s %16.6g %-6s %-16s %s\n", m.name, out.layers[m.name], m.unit, flag, m.about)
		}
	}
	for _, n := range out.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, m := range out.mismatches {
		fmt.Printf("  MISMATCH %s\n", m)
	}
	if out.mismatchCount > len(out.mismatches) {
		fmt.Printf("  ... %d mismatches in all\n", out.mismatchCount)
	}
}
