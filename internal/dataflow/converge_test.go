package dataflow

import (
	"testing"

	"netpath/internal/cfg"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// maxVisitsPerNode pins how hard the worklist works on real programs: no
// solve on any benchmark may evaluate its nodes more than this many times on
// average. The worst benchmark solve (ijpeg's kernels) measures 7.2; the
// engine's own give-up budget (visitsPerNode) is 8x above the pin.
const maxVisitsPerNode = 8

// benchPrograms builds the nine benchmarks at the scale the unit tests use.
func benchPrograms(t *testing.T) []*prog.Program {
	t.Helper()
	var ps []*prog.Program
	for _, b := range workload.All() {
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatalf("%s: build: %v", b.Name, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestSolvesConvergeOnBenchmarks runs every lattice directly over every
// function of every benchmark: each solve must reach a fixpoint within the
// pinned visit bound.
func TestSolvesConvergeOnBenchmarks(t *testing.T) {
	for _, p := range benchPrograms(t) {
		graphs, err := cfg.BuildAll(p)
		if err != nil {
			t.Fatalf("%s: cfg: %v", p.Name, err)
		}
		em := buildEntryModel(p, graphs)
		for fi, g := range graphs {
			cp := &constProblem{g: g, topEntry: em.topEntry[fi], zeroEntry: em.zeroEntry[fi]}
			if em.calledEntry[fi] {
				cp.boundary = topConstState()
			}
			bound := maxVisitsPerNode * g.NumNodes()
			check := func(lattice string, visits int, converged bool) {
				if !converged || visits > bound {
					t.Errorf("%s/%s %s solve: converged=%v after %d visits (bound %d, %d nodes)",
						p.Name, p.Funcs[fi].Name, lattice, converged, visits, bound, g.NumNodes())
				}
			}
			rs := Solve[RangeState](g, em.rangeProblem(fi, g))
			check("range", rs.Visits, rs.Converged)
			cs := Solve[ConstState](g, cp)
			check("const", cs.Visits, cs.Converged)
			ls := Solve[LiveState](g, &liveProblem{g: g})
			check("live", ls.Visits, ls.Converged)
		}
	}
}

// counter is a toy lattice over the naturals whose Widen never jumps to a
// limit: every loop trip raises the state by one, forever.
type counter struct{}

func (counter) Direction() Direction                              { return Forward }
func (counter) Boundary(*cfg.Graph) int64                         { return 0 }
func (counter) Init(*cfg.Graph, cfg.Node) int64                   { return 0 }
func (counter) Transfer(_ *cfg.Graph, _ cfg.Node, in int64) int64 { return in + 1 }
func (counter) Join(a, b int64) int64                             { return max(a, b) }
func (counter) Equal(a, b int64) bool                             { return a == b }
func (counter) Widen(prev, next int64) int64                      { return next }

// noWiden is the range problem with widening broken the same way: it never
// forces an endpoint to infinity, so a counting loop climbs forever.
type noWiden struct{ *rangeProblem }

func (noWiden) Widen(prev, next RangeState) RangeState { return next }

// giveUpProgram has a counting loop with an unknown bound, an in-bounds
// load inside it, and a branch the ranges decide after it.
func giveUpProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("giveup")
	b.SetMemSize(4)
	m := b.Func("main")
	m.Load(2, 0, 0) // r2 = unknown loop bound
	m.Label("loop")
	m.AddI(1, 1, 1)
	m.AndI(3, 1, 3)
	m.Load(4, 3, 0) // address in [0,3]: provably in bounds
	m.Br(isa.Lt, 1, 2, "loop")
	m.BrI(isa.Eq, 5, 0, "done") // r5 is never written: always taken
	m.Halt()
	m.Label("done")
	m.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestSolveGivesUp: a lattice whose Widen never stabilizes must exhaust the
// visit budget and say so, and the distiller must then draw no facts from
// the function.
func TestSolveGivesUp(t *testing.T) {
	p := giveUpProgram(t)
	g, err := cfg.Build(p, 0)
	if err != nil {
		t.Fatalf("cfg.Build: %v", err)
	}
	sol := Solve[int64](g, counter{})
	if sol.Converged {
		t.Fatal("counter lattice reported convergence")
	}
	if want := visitsPerNode * g.NumNodes(); sol.Visits != want {
		t.Errorf("gave up after %d visits, want the budget %d", sol.Visits, want)
	}

	// The real analysis proves both facts...
	full, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if proven, total := full.InBoundsCount(); proven != total || total != 2 {
		t.Fatalf("converged analysis proved %d/%d accesses, want 2/2", proven, total)
	}
	if decided, _ := full.DecidedBranchCount(); decided != 1 {
		t.Fatalf("converged analysis decided %d branches, want 1", decided)
	}
	if full.Unconverged() != 0 {
		t.Fatalf("converged analysis counts %d unconverged solves", full.Unconverged())
	}

	// ...and the same function behind a broken widener proves nothing.
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	em := buildEntryModel(p, graphs)
	broken := Solve[RangeState](graphs[0], noWiden{em.rangeProblem(0, graphs[0])})
	if broken.Converged {
		t.Fatal("range solve without widening reported convergence")
	}
	f := newFacts(p, graphs)
	f.distill(0, graphs[0], broken)
	if proven, _ := f.InBoundsCount(); proven != 0 {
		t.Errorf("unconverged solve proved %d accesses in bounds", proven)
	}
	if decided, _ := f.DecidedBranchCount(); decided != 0 {
		t.Errorf("unconverged solve decided %d branches", decided)
	}
	for pc := range p.Instrs {
		if _, ok := f.EntryRange(pc); ok {
			t.Errorf("unconverged solve recorded an entry range at pc %d", pc)
		}
	}
	if f.Unconverged() != 1 {
		t.Errorf("Unconverged() = %d, want 1", f.Unconverged())
	}
}

// checkFactsDynamically steps p on the plain vm and checks every executed
// instruction the analysis made a claim about: a Load/Store proven in
// bounds must address [0, MemSize), and a decided branch must go the
// decided way.
func checkFactsDynamically(t *testing.T, p *prog.Program, maxSteps int64) (memChecked, brChecked int) {
	t.Helper()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", p.Name, err)
	}
	m := vm.New(p)
	for m.Steps < maxSteps {
		pc := m.PC
		if pc >= 0 && pc < p.Len() {
			in := p.Instrs[pc]
			switch in.Op {
			case isa.Load, isa.Store:
				if f.InBounds(int32(pc)) {
					memChecked++
					if a := m.Reg[in.B] + in.Imm; a < 0 || a >= int64(p.MemSize) {
						t.Fatalf("%s: pc %d proven in bounds but addresses %d (mem %d)", p.Name, pc, a, p.MemSize)
					}
				}
			case isa.Br, isa.BrI:
				if k := f.Branch(int32(pc)); k != BranchUnknown {
					brChecked++
					rhs := in.Imm
					if in.Op == isa.Br {
						rhs = m.Reg[in.B]
					}
					if taken := in.Cond.Eval(m.Reg[in.A], rhs); taken != (k == BranchAlwaysTaken) {
						t.Fatalf("%s: pc %d decided %v but taken=%v", p.Name, pc, k, taken)
					}
				}
			}
		}
		// A halt or a guest fault ends the run; every claim about the
		// instruction that stopped it was checked above.
		if err := m.Step(); err != nil || m.Halted {
			break
		}
	}
	return memChecked, brChecked
}

// TestFactsDynamicallySound replays the benchmarks and random programs on
// the reference interpreter and holds every proven fact to what actually
// executes.
func TestFactsDynamicallySound(t *testing.T) {
	mem, br := 0, 0
	for _, p := range benchPrograms(t) {
		m, b := checkFactsDynamically(t, p, 5_000_000)
		mem += m
		br += b
	}
	for seed := int64(0); seed < 200; seed++ {
		p := randprog.MustGenerate(seed, randprog.Options{})
		m, b := checkFactsDynamically(t, p, 200_000)
		mem += m
		br += b
	}
	if mem == 0 {
		t.Fatal("no proven memory access ever executed: the check checked nothing")
	}
	t.Logf("checked %d proven accesses and %d decided branches", mem, br)
}

// perInstructionEntryRanges is the reference for EntryRange: every
// function's range solve replayed through each reached block with one state
// recorded per instruction, the layout the facts kept before they stored
// one state per block. Functions whose solve did not converge record
// nothing.
func perInstructionEntryRanges(t *testing.T, p *prog.Program) []RangeState {
	t.Helper()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatalf("%s: cfg: %v", p.Name, err)
	}
	em := buildEntryModel(p, graphs)
	out := make([]RangeState, p.Len())
	for fi, g := range graphs {
		sol := Solve[RangeState](g, em.rangeProblem(fi, g))
		if !sol.Converged {
			continue
		}
		for n := 2; n < g.NumNodes(); n++ {
			st := sol.In[n]
			if !st.Reached {
				continue
			}
			b := p.Blocks[g.BlockOf[n]]
			for pc := b.Start; pc < b.End; pc++ {
				out[pc] = st
				rangeTransferInstr(&st, p.Instrs[pc])
			}
		}
	}
	return out
}

// TestEntryRangeMatchesPerInstructionReplay: replaying a block from its
// stored entry state gives, at every pc of the benchmarks and of random
// programs, exactly the state a per-instruction table would have held.
func TestEntryRangeMatchesPerInstructionReplay(t *testing.T) {
	ps := benchPrograms(t)
	for seed := int64(0); seed < 50; seed++ {
		ps = append(ps, randprog.MustGenerate(seed, randprog.Options{}))
	}
	for _, p := range ps {
		f, err := Analyze(p)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", p.Name, err)
		}
		want := perInstructionEntryRanges(t, p)
		for pc := range p.Instrs {
			got, ok := f.EntryRange(pc)
			if got != want[pc] || ok != want[pc].Reached {
				t.Fatalf("%s: EntryRange(%d) = %+v, %v; per-instruction replay has %+v",
					p.Name, pc, got, ok, want[pc])
			}
		}
		for _, pc := range []int{-1, p.Len()} {
			if _, ok := f.EntryRange(pc); ok {
				t.Errorf("%s: EntryRange(%d) outside the program reported reached", p.Name, pc)
			}
		}
	}
}
