package cfg

import (
	"testing"

	"netpath/internal/prog"
	"netpath/internal/workload"
)

// gccProgram builds the largest benchmark program, whose deep dominator
// trees and long block lists expose any super-linear CFG query.
func gccProgram(b *testing.B) *prog.Program {
	b.Helper()
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(0.05)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkVerify times the load-time verifier on gcc: CFG construction,
// reachability, dominators and the natural-loop checks of every function.
func BenchmarkVerify(b *testing.B) {
	p := gccProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyProgram(p); err != nil {
			b.Fatal(err)
		}
	}
}

var loopSink []Loop

// BenchmarkNaturalLoops times back-edge detection and loop-body collection
// over every function CFG of gcc (graphs built outside the timer).
func BenchmarkNaturalLoops(b *testing.B) {
	p := gccProgram(b)
	gs, err := BuildAll(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			loopSink = g.NaturalLoops()
		}
	}
}
