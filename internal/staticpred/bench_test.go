package staticpred

import (
	"testing"

	"netpath/internal/workload"
)

var walkSink []Walk

// BenchmarkStaticAnalyze times the static scheme's whole load-time analysis
// on gcc, the largest program: CFGs, loop maps, the data image, the range
// facts, and a walk from every static head. It calls the uncached Analyze;
// the experiments pay this once per program through dynamo.StaticWalks.
func BenchmarkStaticAnalyze(b *testing.B) {
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
		a, err := Analyze(p)
		if err != nil {
			b.Fatal(err)
		}
		walkSink = a.Walks()
	}
}
