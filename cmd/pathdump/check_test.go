package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCheckCleanBenchmark runs the static-analysis gate end to end on one
// small benchmark: the validator must check translations at both tiers and
// reject none, and elision must do measurable work.
func TestCheckCleanBenchmark(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"check", "-scale", "0.05", "-json", "deltablue"}, &buf); err != nil {
		t.Fatalf("check: %v", err)
	}
	var rep struct {
		Benchmarks []checkEntry `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("check -json output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmark entries, want 1", len(rep.Benchmarks))
	}
	e := rep.Benchmarks[0]
	if e.Name != "deltablue" {
		t.Errorf("entry name = %q, want deltablue", e.Name)
	}
	if e.ValidatorChecked == 0 {
		t.Error("tier-1 validator checked nothing")
	}
	if e.T2Compiled == 0 {
		t.Error("tier-2 compiled nothing; the gate exercised no superblocks")
	}
	if r := e.rejects(); r != 0 {
		t.Errorf("validator rejected %d translations on a clean benchmark", r)
	}
	if e.BoundsProven == 0 || e.BoundsProven != e.BoundsTotal {
		t.Errorf("bounds proven %d/%d, want full coverage on deltablue",
			e.BoundsProven, e.BoundsTotal)
	}
	if e.T2BoundsElided == 0 {
		t.Error("guard elision dropped no bounds checks")
	}
}

// TestCheckTextOutput: the human-readable mode prints one line per
// benchmark with the gate's headline fields.
func TestCheckTextOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"check", "-scale", "0.05", "deltablue"}, &buf); err != nil {
		t.Fatalf("check: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"deltablue", "rejects=0", "guards/step="} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckUnknownBenchmark: a bad name must fail loudly, not skip.
func TestCheckUnknownBenchmark(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"check", "nonesuch"}, &buf); err == nil {
		t.Fatal("check accepted an unknown benchmark name")
	}
}

// TestCheckReportsConvergence: the JSON report carries each benchmark's
// range-solve health, the fields the CI gate's jq filter reads.
func TestCheckReportsConvergence(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"check", "-scale", "0.01", "-json", "ijpeg"}, &buf); err != nil {
		t.Fatalf("check: %v", err)
	}
	var rep struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil || len(rep.Benchmarks) != 1 {
		t.Fatalf("check -json: %v\n%s", err, buf.String())
	}
	e := rep.Benchmarks[0]
	if u, ok := e["unconverged"].(float64); !ok || u != 0 {
		t.Errorf("unconverged = %v, want 0", e["unconverged"])
	}
	if v, ok := e["max_visits"].(float64); !ok || v <= 0 {
		t.Errorf("max_visits = %v, want a positive count", e["max_visits"])
	}
}
