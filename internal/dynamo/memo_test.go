package dynamo

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/staticpred"
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
	if Verify(merged) == nil {
		t.Error("folded program verified: it borrowed the original's verdict")
	}
}

// TestVerifySharedWithNew: Verify (netpathd's admission check) and New's
// load gate read one verdict per image. Each verifier run builds a fresh
// *cfg.VerifyError, so an identical error value on a rebuilt copy proves the
// verifier ran once.
func TestVerifySharedWithNew(t *testing.T) {
	spin := func() *prog.Program {
		p := &prog.Program{
			Name:    "spin",
			Instrs:  []isa.Instr{{Op: isa.Jmp, Target: 0}},
			Funcs:   []prog.Func{{Name: "main", Entry: 0, End: 1}},
			Blocks:  []prog.Block{{Start: 0, End: 1, Func: 0}},
			MemSize: 1,
		}
		p.Freeze()
		return p
	}
	err := Verify(spin())
	if err == nil {
		t.Fatal("counterless infinite loop verified")
	}
	if again := New(spin(), DefaultConfig(SchemeNET, 50)).verifyErr; again != err {
		t.Errorf("New on a rebuilt copy got verdict %p (%v), want the memoized %p", again, again, err)
	}
}

// TestProgramMemoDoesNotPin: once verified, analyzed and walked, a program
// the caller drops must be collectable; the memo keeps digests, verdicts,
// detached facts and walks, never the program.
func TestProgramMemoDoesNotPin(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := buildBench(t, "ijpeg")
		runtime.SetFinalizer(p, func(*prog.Program) { close(collected) })
		if err := Verify(p); err != nil {
			t.Fatalf("verify: %v", err)
		}
		if ProgramFacts(p) == nil {
			t.Fatal("analysis failed on a benchmark")
		}
		if walks, err := StaticWalks(p); err != nil || len(walks) == 0 {
			t.Fatalf("static walks: %d walks, %v", len(walks), err)
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
	t.Fatal("program still reachable after its verdict, facts and walks were memoized")
}

// TestProgramMemoConcurrent: Systems and tier-2 workers reach the memo from
// many goroutines at once, through shared and rebuilt programs alike; all of
// them must land on one entry with one verdict, one set of facts and one
// computation of the static walks (every caller gets the same backing
// array).
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
	walks := make([][]staticpred.Walk, len(progs))
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Verify(p)
			facts[i] = ProgramFacts(p) != nil
			walks[i], _ = StaticWalks(p)
			entries[i] = memoFor(p)
		}()
	}
	wg.Wait()
	for i := range progs {
		if errs[i] != nil || !facts[i] || len(walks[i]) == 0 {
			t.Errorf("caller %d: verify %v, facts %v, %d walks", i, errs[i], facts[i], len(walks[i]))
			continue
		}
		if entries[i] != entries[0] {
			t.Errorf("caller %d got a different memo entry", i)
		}
		if &walks[i][0] != &walks[0][0] {
			t.Errorf("caller %d got walks from a second computation", i)
		}
	}
}

// freshWalks is the uncached computation StaticWalks memoizes.
func freshWalks(t *testing.T, p *prog.Program) []staticpred.Walk {
	t.Helper()
	a, err := staticpred.Analyze(p)
	if err != nil {
		t.Fatalf("%s: analyze: %v", p.Name, err)
	}
	return a.Walks()
}

// TestStaticWalksMatchAnalyze: the memoized walks are exactly the walks a
// fresh staticpred.Analyze produces, on every benchmark and on random
// programs, whether the memo entry was filled through the same program or
// through a rebuilt copy.
func TestStaticWalksMatchAnalyze(t *testing.T) {
	var progs, copies []*prog.Program
	for _, name := range workload.Names() {
		progs = append(progs, buildBench(t, name))
		copies = append(copies, buildBench(t, name))
	}
	for seed := int64(1); seed <= 48; seed++ {
		progs = append(progs, randprog.MustGenerate(seed, randprog.Options{}))
		copies = append(copies, randprog.MustGenerate(seed, randprog.Options{}))
	}
	for i, p := range progs {
		got, err := StaticWalks(copies[i])
		if err != nil {
			t.Fatalf("%s: static walks: %v", p.Name, err)
		}
		if want := freshWalks(t, p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (program %d): memoized walks differ from a fresh analysis", p.Name, i)
		}
	}
}

// TestStaticWalksKeying: a rebuilt copy of a program reads the walks the
// first build computed, while a one-instruction mutant — a conditional
// branch whose comparison changes the walks — gets an entry and walks of
// its own.
func TestStaticWalksKeying(t *testing.T) {
	p1, p2 := buildBench(t, "m88ksim"), buildBench(t, "m88ksim")
	w1, err1 := StaticWalks(p1)
	w2, err2 := StaticWalks(p2)
	if err1 != nil || err2 != nil || len(w1) == 0 {
		t.Fatalf("static walks: %v, %v (%d walks)", err1, err2, len(w1))
	}
	if &w1[0] != &w2[0] {
		t.Error("a rebuilt copy computed its walks again")
	}

	for pc, in := range p1.Instrs {
		if (in.Op != isa.Br && in.Op != isa.BrI) || int(in.Target) <= pc {
			continue
		}
		instrs := append([]isa.Instr(nil), p1.Instrs...)
		instrs[pc].Cond = (in.Cond + 1) % (isa.Ge + 1)
		m := &prog.Program{
			Name: p1.Name, Instrs: instrs, Funcs: p1.Funcs, Blocks: p1.Blocks,
			MemSize: p1.MemSize, InitMem: p1.InitMem, Entry: p1.Entry,
		}
		m.Freeze()
		want := freshWalks(t, m)
		if reflect.DeepEqual(want, w1) {
			continue // this flip does not move any walk; try the next branch
		}
		if memoFor(m) == memoFor(p1) {
			t.Fatal("a one-instruction mutant shares the original's memo entry")
		}
		got, err := StaticWalks(m)
		if err != nil {
			t.Fatalf("mutant: static walks: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("the mutant's memoized walks differ from its fresh analysis")
		}
		return
	}
	t.Fatal("no conditional-branch flip changed m88ksim's walks")
}
