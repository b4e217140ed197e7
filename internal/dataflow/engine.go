// Package dataflow is a worklist-driven abstract-interpretation framework
// over the per-function CFGs built by internal/cfg, plus the translation
// validator that checks tier-1 fragments and tier-2 superblocks against the
// guest instruction sequences they claim to implement.
//
// The engine is generic over the lattice: a Problem[S] supplies the
// direction, boundary/initial states, the per-block transfer function, and
// the join. Optional interfaces refine edge states (branch-condition
// narrowing) and widen loop-carried states to force termination on lattices
// of unbounded height (intervals). Solve is a priority worklist: a node is
// re-queued only when a node feeding it changed its output, and the queued
// node earliest in reverse post order (post order for backward problems)
// runs first. The ascent is monotone, each new input being
// Widen(prev, Join(prev, next)) once a node has changed widenAfter times,
// so edge refinement cannot pull a widened state back down and every solve
// settles in a few visits per node. There is no separate narrowing phase;
// the refined edges already recover the bounds the facts need. A solve that
// exhausts its visit budget anyway reports Converged == false, and a
// function whose range solve did not converge contributes no facts.
// Everything is deterministic, so two runs over the same program produce
// identical solutions.
//
// Four lattices ship with the package: value ranges (interval.go), constant
// propagation (constprop.go), liveness (liveness.go) and call-graph stack
// depth (stackdepth.go). Analyze (facts.go) runs the range and stack-depth
// analyses over a whole program and distills the per-instruction facts the
// rest of the system consumes: which memory accesses are provably in bounds
// and which branches are statically decided. validate.go uses the same
// facts to re-prove each compiled superblock and fragment equivalent to its
// guest source.
package dataflow

import (
	"math/bits"

	"netpath/internal/cfg"
)

// Direction says which way a problem's facts flow.
type Direction int

const (
	// Forward problems propagate facts from Entry toward Exit.
	Forward Direction = iota
	// Backward problems propagate facts from Exit toward Entry.
	Backward
)

// Problem is one dataflow problem over a single function CFG. S is the
// per-node lattice state; values are treated as immutable by the engine
// (Transfer and Join must return fresh or shared-safe values, never mutate
// their arguments in place).
type Problem[S any] interface {
	// Direction returns Forward or Backward.
	Direction() Direction
	// Boundary is the state at the boundary node: the in-state of Entry for
	// forward problems, the out-state of Exit for backward ones.
	Boundary(g *cfg.Graph) S
	// Init is the initial (pre-join) state contributed to node n before any
	// edge state arrives. For most problems this is the lattice bottom;
	// range analysis uses it to model extra entries (indirect-jump targets,
	// cross-function fall-ins) that the CFG has no edges for.
	Init(g *cfg.Graph, n cfg.Node) S
	// Transfer applies node n's effect to its input state.
	Transfer(g *cfg.Graph, n cfg.Node, in S) S
	// Join combines two states flowing into the same node.
	Join(a, b S) S
	// Equal reports whether two states are indistinguishable; the fixpoint
	// loop stops when no node's input changes.
	Equal(a, b S) bool
}

// EdgeRefiner is an optional Problem extension: RefineEdge may strengthen
// the state flowing across a specific edge, e.g. narrowing a register's
// interval on the taken side of a conditional branch. It must only ever
// lower the state (return something ≤ out in the lattice order) — raising
// it would be unsound.
type EdgeRefiner[S any] interface {
	RefineEdge(g *cfg.Graph, from, to cfg.Node, out S) S
}

// Widener is an optional Problem extension for lattices with unbounded
// ascending chains. After a node's input has changed widenAfter times, the
// engine replaces it with Widen(prev, Join(prev, next)). Widen must return an
// upper bound of both arguments and must stabilize in finitely many steps;
// one that does not is caught by the visit budget and reported as a solve
// that did not converge.
type Widener[S any] interface {
	Widen(prev, next S) S
}

// widenAfter is the number of times a node's input may change before the
// engine starts widening it. Small enough to terminate fast, large enough
// to let short chains (init; bound-check; increment) settle exactly first.
const widenAfter = 4

// visitsPerNode sizes the visit budget: a solve may evaluate each node this
// many times on average before it gives up. Every lattice shipped here
// settles in a small fraction of it on every benchmark; the budget exists so
// a lattice bug degrades to "no facts" instead of hanging the compiler.
const visitsPerNode = 64

// Solution holds the result of a problem: the state flowing into and out of
// every CFG node, indexed by cfg.Node.
type Solution[S any] struct {
	In  []S
	Out []S
	// Visits is the number of node evaluations (join, widen, transfer) the
	// worklist performed.
	Visits int
	// Converged reports that the worklist drained, so In and Out are a
	// fixpoint. When false the solve hit its visit budget: the states are
	// not a sound description of the program and nothing may be concluded
	// from them.
	Converged bool
}

// Solve runs p to a fixpoint over g and returns the per-node solution.
//
// Solve is a priority worklist. Every node starts queued; a node is
// re-queued only when the output of one of the nodes feeding it changed,
// and the queued node earliest in reverse post order (post order for
// backward problems) is always evaluated first, so inner loops settle
// before the code after them is revisited. Nodes the DFS from Entry never
// reached (indirect jump targets in graphs where cfg stops edge
// construction) rank last, in node order, so extra-entry states still
// propagate.
//
// The ascent is monotone: a node's new input is joined with its previous
// one (and widened, once it has changed widenAfter times), so edge
// refinement can never pull a state back below what was already seen and
// every node's input climbs a finite chain. A solve that exceeds its visit
// budget returns with Converged false.
func Solve[S any](g *cfg.Graph, p Problem[S]) *Solution[S] {
	n := g.NumNodes()
	sol := &Solution[S]{In: make([]S, n), Out: make([]S, n)}

	order := visitOrder(g, p.Direction())
	rank := make([]int, n)
	for r, node := range order {
		rank[node] = r
	}

	refiner, hasRefine := p.(EdgeRefiner[S])
	widener, hasWiden := p.(Widener[S])

	// flows[v] are the nodes whose states feed v and feeds[v] the nodes v
	// feeds, honoring direction.
	flows, feeds := g.Preds, g.Succs
	boundaryNode := cfg.Entry
	if p.Direction() == Backward {
		flows, feeds = g.Succs, g.Preds
		boundaryNode = cfg.Exit
	}

	wl := newWorklist(n)
	for r, node := range order {
		in := p.Init(g, node)
		if node == boundaryNode {
			in = p.Boundary(g)
		}
		sol.In[node], sol.Out[node] = in, p.Transfer(g, node, in)
		wl.push(r)
	}

	// changes counts per-node input changes, for widening.
	changes := make([]int, n)
	budget := visitsPerNode * n
	for {
		r, ok := wl.pop()
		if !ok {
			sol.Converged = true
			return sol
		}
		if sol.Visits == budget {
			return sol
		}
		sol.Visits++
		node := order[r]
		prev := sol.In[node]
		in := prev
		for _, pred := range flows[node] {
			out := sol.Out[pred]
			if hasRefine {
				if p.Direction() == Forward {
					out = refiner.RefineEdge(g, pred, node, out)
				} else {
					out = refiner.RefineEdge(g, node, pred, out)
				}
			}
			in = p.Join(in, out)
		}
		if p.Equal(in, prev) {
			continue
		}
		changes[node]++
		if hasWiden && changes[node] > widenAfter {
			in = widener.Widen(prev, in)
		}
		sol.In[node] = in
		out := p.Transfer(g, node, in)
		if p.Equal(out, sol.Out[node]) {
			continue
		}
		sol.Out[node] = out
		for _, next := range feeds[node] {
			wl.push(rank[next])
		}
	}
}

// worklist is a set of node ranks that pops its minimum first. Ranks are
// bits; low is a lower bound on every queued rank, so pops scan forward from
// it and the common case (successors rank after the node just popped) never
// rescans the prefix.
type worklist struct {
	bits []uint64
	low  int
}

func newWorklist(n int) *worklist {
	return &worklist{bits: make([]uint64, (n+63)/64), low: n}
}

func (w *worklist) push(r int) {
	w.bits[r>>6] |= 1 << (r & 63)
	if r < w.low {
		w.low = r
	}
}

func (w *worklist) pop() (int, bool) {
	for i := w.low >> 6; i < len(w.bits); i++ {
		if b := w.bits[i]; b != 0 {
			r := i<<6 | bits.TrailingZeros64(b)
			w.bits[i] &^= 1 << (r & 63)
			w.low = r + 1
			return r, true
		}
	}
	w.low = len(w.bits) << 6
	return 0, false
}

// visitOrder returns the node iteration order for a direction: RPO
// (forward) or post order (backward), then any nodes the DFS from Entry
// never reached, in ascending node order, so states seeded by Init on
// unreachable-from-Entry nodes (indirect-jump targets) still flow.
func visitOrder(g *cfg.Graph, d Direction) []cfg.Node {
	rpo := g.RPO()
	seen := make([]bool, g.NumNodes())
	order := make([]cfg.Node, 0, g.NumNodes())
	if d == Forward {
		for _, n := range rpo {
			seen[n] = true
			order = append(order, n)
		}
	} else {
		for i := len(rpo) - 1; i >= 0; i-- {
			seen[rpo[i]] = true
			order = append(order, rpo[i])
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !seen[n] {
			order = append(order, cfg.Node(n))
		}
	}
	return order
}
