package dynamo

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"netpath/internal/prog"
	"netpath/internal/workload"
)

func buildBench(t *testing.T, name string) *prog.Program {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.01)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	return p
}

// TestProgramMemoKeying: rebuilt copies of one benchmark share a memo entry
// (and so one verify and one analysis), while a program that shares the
// other's FNV Fingerprint but not its function table gets an entry, and a
// verdict, of its own.
func TestProgramMemoKeying(t *testing.T) {
	p1 := buildBench(t, "deltablue")
	p2 := buildBench(t, "deltablue")
	if p1 == p2 {
		t.Fatal("two builds returned one program")
	}
	if err := New(p1, DefaultConfig(SchemeNET, 50)).verifyErr; err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := New(p2, DefaultConfig(SchemeNET, 50)).verifyErr; err != nil {
		t.Fatalf("verify: %v", err)
	}
	e := memoFor(p1)
	if memoFor(p2) != e {
		t.Fatal("two builds of one benchmark got separate memo entries")
	}
	f1, f2 := ProgramFacts(p1), ProgramFacts(p2)
	if f1 == nil || f2 == nil {
		t.Fatal("analysis failed on a benchmark")
	}
	if f1.Prog != p1 || f2.Prog != p2 {
		t.Error("memoized facts not bound to the caller's program")
	}
	if e.facts == nil || e.facts.Prog != nil || e.facts.Graphs != nil {
		t.Error("memo entry's facts are missing or still refer to a program")
	}

	// Same instruction words, entry and memory (so the same Fingerprint),
	// but every function folded into one: calls now target mid-function
	// addresses and the program no longer verifies.
	merged := &prog.Program{
		Name:    p1.Name,
		Instrs:  p1.Instrs,
		Funcs:   []prog.Func{{Name: p1.Funcs[0].Name, Entry: 0, End: p1.Len()}},
		Blocks:  append([]prog.Block(nil), p1.Blocks...),
		MemSize: p1.MemSize,
		InitMem: p1.InitMem,
		Entry:   p1.Entry,
	}
	for i := range merged.Blocks {
		merged.Blocks[i].Func = 0
	}
	merged.Freeze()
	if merged.Fingerprint() != p1.Fingerprint() {
		t.Fatal("folding functions changed the Fingerprint; the test needs equal fingerprints")
	}
	if memoFor(merged) == e {
		t.Fatal("programs with equal Fingerprint but different functions share a memo entry")
	}
	if verifyGate(merged) == nil {
		t.Error("folded program verified: it borrowed the original's verdict")
	}
}

// TestProgramMemoDoesNotPin: once verified and analyzed, a program the
// caller drops must be collectable; the memo keeps digests, verdicts and
// detached facts, never the program.
func TestProgramMemoDoesNotPin(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := buildBench(t, "ijpeg")
		runtime.SetFinalizer(p, func(*prog.Program) { close(collected) })
		if err := verifyGate(p); err != nil {
			t.Fatalf("verify: %v", err)
		}
		if ProgramFacts(p) == nil {
			t.Fatal("analysis failed on a benchmark")
		}
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("program still reachable after its verdict and facts were memoized")
}

// TestProgramMemoConcurrent: Systems and tier-2 workers reach the memo from
// many goroutines at once, through shared and rebuilt programs alike; all of
// them must land on one entry with one verdict and one set of facts.
func TestProgramMemoConcurrent(t *testing.T) {
	shared := buildBench(t, "li")
	progs := make([]*prog.Program, 8)
	for i := range progs {
		progs[i] = shared
		if i%2 == 1 {
			progs[i] = buildBench(t, "li")
		}
	}
	entries := make([]*memoEntry, len(progs))
	errs := make([]error, len(progs))
	facts := make([]bool, len(progs))
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = verifyGate(p)
			facts[i] = ProgramFacts(p) != nil
			entries[i] = memoFor(p)
		}()
	}
	wg.Wait()
	for i := range progs {
		if errs[i] != nil || !facts[i] {
			t.Errorf("caller %d: verify %v, facts %v", i, errs[i], facts[i])
		}
		if entries[i] != entries[0] {
			t.Errorf("caller %d got a different memo entry", i)
		}
	}
}
