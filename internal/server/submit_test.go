package server

import (
	"testing"

	"netpath/internal/prog"
	"netpath/internal/workload"
)

// TestBenchProgramsShared: requests for one (benchmark, scale) pair share a
// single built program, other scales get their own, and the set stays
// within its cap however many scales clients ask for.
func TestBenchProgramsShared(t *testing.T) {
	var c benchPrograms
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	get := func(scale float64) *prog.Program {
		t.Helper()
		p, err := c.get(b, scale)
		if err != nil {
			t.Fatalf("build at %v: %v", scale, err)
		}
		return p
	}
	p := get(0.01)
	if get(0.01) != p {
		t.Error("two requests for one benchmark and scale built two programs")
	}
	if get(0.02) == p {
		t.Error("a different scale reused the program")
	}
	for i := 1; i <= 3*benchCacheCap; i++ {
		get(float64(i) / 1000)
		if len(c.m) > benchCacheCap {
			t.Fatalf("%d programs held, cap %d", len(c.m), benchCacheCap)
		}
	}
}
