package dataflow

import (
	"testing"

	"netpath/internal/workload"
)

// BenchmarkAnalyze times the whole-program range analysis on gcc, the
// largest benchmark: CFGs, entry model, one solve per function and the
// distilled facts.
func BenchmarkAnalyze(b *testing.B) {
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}
