package cfg

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// reachAvoiding marks in seen the nodes reachable from Entry once a is
// removed from the graph. By definition a dominates a reachable b (a != b)
// iff b stays unmarked, so one traversal per a decides a's whole row of the
// dominance relation.
func reachAvoiding(g *Graph, a Node, seen []bool, stack []Node) []Node {
	clear(seen)
	if a == Entry {
		return stack
	}
	seen[a] = true
	stack = append(stack[:0], Entry)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		for _, v := range g.Succs[u] {
			if !seen[v] {
				stack = append(stack, v)
			}
		}
	}
	seen[a] = false
	return stack
}

// checkDominatorsAgainstBrute compares Dominates against the definition for
// every reachable pair, and checks each Idom is a strict dominator dominated
// by every other strict dominator. It decides one row a at a time, so it
// costs O(n·(n+e)) time and O(n) space and runs on the largest benchmark
// functions.
func checkDominatorsAgainstBrute(t *testing.T, g *Graph) {
	t.Helper()
	n := Node(g.NumNodes())
	var reach []Node
	for u := Node(0); u < n; u++ {
		if g.Reachable(u) {
			reach = append(reach, u)
		}
	}
	seen := make([]bool, n)
	var stack []Node
	for _, a := range reach {
		stack = reachAvoiding(g, a, seen, stack)
		// dom(b) holds iff a dominates b by definition.
		dom := func(b Node) bool { return a == b || a == Entry || !seen[b] }
		for _, b := range reach {
			if got, want := g.Dominates(a, b), dom(b); got != want {
				t.Errorf("Dominates(%d,%d) = %v, brute force says %v", a, b, got, want)
				return
			}
			if b == Entry || a == b {
				continue
			}
			id := g.Idom(b)
			if id == b || !g.Reachable(id) || (id == a && !dom(b)) {
				t.Errorf("Idom(%d) = %d is not a strict dominator", b, id)
				return
			}
			// The idom is the unique closest strict dominator: every other
			// strict dominator a of b dominates it too.
			if dom(b) && !dom(id) {
				t.Errorf("strict dominator %d of %d does not dominate Idom %d", a, b, id)
				return
			}
		}
	}
}

// irreducibleLoop: the entry branches into the middle of a two-block cycle,
// so the cycle has two entries and no natural-loop head — the canonical
// irreducible shape that breaks naive interval analyses.
//
//	E → A, E → B, A → B, B → A, B → H(alt)
func irreducibleLoop() *prog.Program {
	return raw("irreducible",
		[]isa.Instr{
			{Op: isa.Br, Cond: isa.Eq, Target: 3}, // E: to B or fall into A
			{Op: isa.Nop},
			{Op: isa.Jmp, Target: 3}, // A → B
			{Op: isa.Nop},
			{Op: isa.Br, Cond: isa.Ne, Target: 1}, // B → A or fall to H
			{Op: isa.Halt},
		},
		[]prog.Func{{Name: "main", Entry: 0, End: 6}},
		[]prog.Block{
			{Start: 0, End: 1, Func: 0},
			{Start: 1, End: 3, Func: 0},
			{Start: 3, End: 5, Func: 0},
			{Start: 5, End: 6, Func: 0},
		},
		0)
}

// multiEntryNest: a reducible outer loop whose body contains an irreducible
// pair — the header enters the C↔D cycle at both C and D, so the inner
// cycle has two entries while the outer loop stays natural.
//
//	E → H; H → C, H → D; C → D; D → C, D → B; B → H (back edge), B → X
func multiEntryNest() *prog.Program {
	return raw("multientry",
		[]isa.Instr{
			{Op: isa.Jmp, Target: 1},              // E → H
			{Op: isa.Nop},                         // H: outer header
			{Op: isa.Br, Cond: isa.Ne, Target: 5}, // H → D or fall to C
			{Op: isa.Nop},                         // C
			{Op: isa.Jmp, Target: 5},              // C → D
			{Op: isa.Nop},                         // D
			{Op: isa.Br, Cond: isa.Lt, Target: 3}, // D → C (cycle) or fall to B
			{Op: isa.Nop},                         // B: outer latch
			{Op: isa.Br, Cond: isa.Gt, Target: 1}, // B → H (back edge) or fall to X
			{Op: isa.Halt},                        // X
		},
		[]prog.Func{{Name: "main", Entry: 0, End: 10}},
		[]prog.Block{
			{Start: 0, End: 1, Func: 0},
			{Start: 1, End: 3, Func: 0},
			{Start: 3, End: 5, Func: 0},
			{Start: 5, End: 7, Func: 0},
			{Start: 7, End: 9, Func: 0},
			{Start: 9, End: 10, Func: 0},
		},
		0)
}

// TestDominatorsIrreducible: the iterative dominator computation must match
// the definitional brute force on an irreducible two-entry cycle, and the
// cycle must produce no natural loop (neither cycle edge is a back edge,
// since neither endpoint dominates the other).
func TestDominatorsIrreducible(t *testing.T) {
	g, err := Build(irreducibleLoop(), 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	checkDominatorsAgainstBrute(t, g)
	if loops := g.NaturalLoops(); len(loops) != 0 {
		t.Errorf("irreducible cycle produced %d natural loops, want 0", len(loops))
	}
}

// TestDominatorsMultiEntryNest: reducible outer loop around an irreducible
// inner pair. The outer back edge must survive as the only natural loop; the
// inner cycle must not, and dominance must match brute force throughout.
func TestDominatorsMultiEntryNest(t *testing.T) {
	p := multiEntryNest()
	g, err := Build(p, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	checkDominatorsAgainstBrute(t, g)
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("natural loops = %d, want exactly the outer loop", len(loops))
	}
	if head := p.Blocks[g.BlockOf[loops[0].Head]].Start; head != 1 {
		t.Errorf("outer loop head at addr %d, want 1", head)
	}
}
