package cfg

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// The reference implementations below are the CFG queries as first
// written: Reachable scans the reverse postorder, Dominates walks the idom
// chain, and NaturalLoops collects each head's body in a map. They are
// quadratic on large functions and serve only as oracles for the
// constant-time queries.

func refReachable(g *Graph, u Node) bool {
	for _, v := range g.RPO() {
		if v == u {
			return true
		}
	}
	return false
}

func refDominates(g *Graph, a, b Node) bool {
	if g.Idom(b) < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == Entry {
			return false
		}
		b = g.Idom(b)
		if b < 0 {
			return false
		}
	}
}

func refBackEdges(g *Graph) []Edge {
	var out []Edge
	for _, e := range g.Edges() {
		if refReachable(g, e.From) && refDominates(g, e.To, e.From) {
			out = append(out, e)
		}
	}
	return out
}

func refNaturalLoops(g *Graph) []Loop {
	byHead := map[Node]map[Node]bool{}
	for _, e := range refBackEdges(g) {
		body := byHead[e.To]
		if body == nil {
			body = map[Node]bool{e.To: true}
			byHead[e.To] = body
		}
		stack := []Node{e.From}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[u] {
				continue
			}
			body[u] = true
			stack = append(stack, g.Preds[u]...)
		}
	}
	heads := make([]Node, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	loops := make([]Loop, 0, len(heads))
	for _, h := range heads {
		var body []Node
		for u := range byHead[h] {
			body = append(body, u)
		}
		sort.Slice(body, func(i, j int) bool { return body[i] < body[j] })
		loops = append(loops, Loop{Head: h, Body: body})
	}
	return loops
}

// mutate returns a copy of p in which about one conditional branch in eight
// becomes an unconditional jump, to its target or to its fall-through. The
// copy still passes prog.Validate but gains unreachable blocks, loops with
// no exit and functions that never return: the shapes Verify reports and
// the queries must handle off the reachable subgraph.
func mutate(p *prog.Program, seed int64) *prog.Program {
	r := rand.New(rand.NewSource(seed))
	instrs := append([]isa.Instr(nil), p.Instrs...)
	for pc, in := range instrs {
		if !in.Op.IsConditional() || r.Intn(8) != 0 {
			continue
		}
		target := in.Target
		if r.Intn(2) == 0 {
			target = int32(pc + 1)
		}
		instrs[pc] = isa.Instr{Op: isa.Jmp, Target: target}
	}
	q := &prog.Program{
		Name: p.Name, Instrs: instrs, Funcs: p.Funcs, Blocks: p.Blocks,
		MemSize: p.MemSize, InitMem: p.InitMem, Entry: p.Entry,
	}
	q.Freeze()
	return q
}

type corpusProgram struct {
	name string
	p    *prog.Program
	// brute: check dominance against its definition, which is quadratic in
	// the function size. Off for the mutated benchmark copies, whose large
	// functions the unmutated originals already cover.
	brute bool
}

// oracleCorpus is every benchmark program and a spread of randprog seeds,
// each with two mutated copies.
func oracleCorpus(t testing.TB) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	add := func(name string, p *prog.Program) {
		out = append(out, corpusProgram{name, p, true})
		bruteMutants := strings.HasPrefix(name, "randprog")
		for k := int64(0); k < 2; k++ {
			out = append(out, corpusProgram{fmt.Sprintf("%s/mut%d", name, k), mutate(p, k), bruteMutants})
		}
	}
	for _, w := range workload.All() {
		p, err := w.Build(0.05)
		if err != nil {
			t.Fatalf("%s: build: %v", w.Name, err)
		}
		add(w.Name, p)
	}
	for seed := int64(0); seed < 30; seed++ {
		add(fmt.Sprintf("randprog/%d", seed), randprog.MustGenerate(seed, randprog.Options{}))
	}
	big := randprog.Options{MaxFuncs: 8, MaxDepth: 4, MaxBody: 8}
	for seed := int64(0); seed < 10; seed++ {
		p, err := randprog.Generate(seed, big)
		if err != nil {
			continue
		}
		add(fmt.Sprintf("randprog-big/%d", seed), p)
	}
	return out
}

// raceGraphLimit caps the graph size TestQueriesMatchReference checks
// under the race detector, which slows its quadratic single-goroutine loops
// about twentyfold and has nothing to find in them. Without -race every
// graph is checked.
const raceGraphLimit = 2000

// TestQueriesMatchReference: on every function graph of the corpus,
// Reachable, BackEdges and NaturalLoops agree with the reference
// implementations, and dominance matches its definition (checked by
// checkDominatorsAgainstBrute) on every graph but the mutated benchmarks'.
func TestQueriesMatchReference(t *testing.T) {
	for _, c := range oracleCorpus(t) {
		gs, err := BuildAll(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for fi, g := range gs {
			if raceEnabled && g.NumNodes() > raceGraphLimit {
				continue
			}
			for u := Node(0); u < Node(g.NumNodes()); u++ {
				if got, want := g.Reachable(u), refReachable(g, u); got != want {
					t.Fatalf("%s func %d: Reachable(%d) = %v, reference %v", c.name, fi, u, got, want)
				}
			}
			if got, want := g.BackEdges(), refBackEdges(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s func %d: BackEdges differ from reference:\n got %v\nwant %v", c.name, fi, got, want)
			}
			if got, want := g.NaturalLoops(), refNaturalLoops(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s func %d: NaturalLoops differ from reference:\n got %v\nwant %v", c.name, fi, got, want)
			}
			if !c.brute {
				continue
			}
			checkDominatorsAgainstBrute(t, g)
			if t.Failed() {
				t.Fatalf("%s func %d: dominance disagrees with brute force", c.name, fi)
			}
		}
	}
}

// TestVerifyCorpusGolden pins Verify's report on every corpus program to
// testdata/verify_corpus.golden (one line per program: issue count and the
// SHA-256 of the rendered report), recorded from the reference queries.
// Regenerate with -update only for a deliberate change of the report.
func TestVerifyCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range oracleCorpus(t) {
		rep := Verify(c.p)
		fmt.Fprintf(&b, "%s issues=%d errors=%d sha256=%x\n",
			c.name, len(rep.Issues), len(rep.Errors()), sha256.Sum256([]byte(rep.String())))
	}
	const path = "testdata/verify_corpus.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Verify reports differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
