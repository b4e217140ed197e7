// Package cfg builds intraprocedural control-flow graphs for the functions
// of a program and provides the standard analyses the profiling substrates
// need: reverse postorder, dominators, back edges, and natural loops.
//
// Nodes are the basic blocks of one function plus two virtual nodes, Entry
// and Exit. A call instruction is treated as falling through to its
// continuation (the callee is a separate graph); returns and halts edge to
// Exit. Indirect jumps have no static successors; functions containing them
// are flagged (Ball–Larus numbering requires a static CFG and rejects them).
package cfg

import (
	"fmt"
	"slices"
	"sort"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// Node is a CFG node index. 0 is Entry and 1 is Exit; real blocks follow.
type Node int

// Virtual node indices.
const (
	Entry Node = 0
	Exit  Node = 1
)

// Edge is a directed CFG edge.
type Edge struct {
	From, To Node
}

// Graph is the CFG of one function.
type Graph struct {
	Prog *prog.Program
	Func int // index into Prog.Funcs

	// BlockOf maps node (>= 2) to the program block index; -1 for Entry/Exit.
	BlockOf []int
	// NodeOf maps program block index to node.
	NodeOf map[int]Node

	Succs [][]Node
	Preds [][]Node

	// HasIndirect reports that the function contains an indirect jump, so
	// the static successor sets are incomplete.
	HasIndirect bool

	rpo []Node
	// rpoIdx[u] is u's position in rpo, -1 when u is unreachable.
	rpoIdx []int32
	idom   []Node
	// pre and post number the dominator tree in one DFS from Entry: a
	// dominates b iff b's interval [pre, post] nests inside a's.
	pre, post []int32
}

// Build constructs the CFG for function fi of p. The program's blocks must
// tile its functions (prog.Validate checks this), so fi's blocks are the
// contiguous run starting at the block of its entry.
func Build(p *prog.Program, fi int) (*Graph, error) {
	if fi < 0 || fi >= len(p.Funcs) {
		return nil, fmt.Errorf("cfg: function index %d out of range", fi)
	}
	f := p.Funcs[fi]
	first := p.BlockAt(f.Entry)
	if first < 0 || p.Blocks[first].Func != fi {
		return nil, fmt.Errorf("cfg: function %q has no block at its entry %d", f.Name, f.Entry)
	}
	last := first
	for last < len(p.Blocks) && p.Blocks[last].Func == fi {
		last++
	}
	n := 2 + last - first
	g := &Graph{Prog: p, Func: fi, NodeOf: make(map[int]Node, last-first)}
	g.BlockOf = make([]int, 2, n)
	g.BlockOf[Entry], g.BlockOf[Exit] = -1, -1
	for bi := first; bi < last; bi++ {
		g.NodeOf[bi] = Node(len(g.BlockOf))
		g.BlockOf = append(g.BlockOf, bi)
	}
	g.Succs = make([][]Node, n)
	g.Preds = make([][]Node, n)

	addEdge := func(from, to Node) {
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	}

	addEdge(Entry, g.NodeOf[first])

	for bi := first; bi < last; bi++ {
		b := p.Blocks[bi]
		node := g.NodeOf[bi]
		term := p.Instrs[b.End-1]
		switch term.Op {
		case isa.Jmp:
			g.edgeToAddr(addEdge, node, int(term.Target))
		case isa.Br, isa.BrI:
			g.edgeToAddr(addEdge, node, int(term.Target))
			g.edgeToAddr(addEdge, node, b.End) // fall-through
		case isa.Call, isa.CallInd:
			// Continuation after the call returns.
			if b.End < f.End {
				g.edgeToAddr(addEdge, node, b.End)
			} else {
				addEdge(node, Exit)
			}
		case isa.Ret, isa.Halt:
			addEdge(node, Exit)
		case isa.JmpInd:
			g.HasIndirect = true
			// No static successors.
		}
	}
	g.computeRPO()
	g.computeDominators()
	g.numberDomTree()
	return g, nil
}

func (g *Graph) edgeToAddr(add func(Node, Node), from Node, addr int) {
	bi := g.Prog.BlockAt(addr)
	if to, ok := g.NodeOf[bi]; ok && g.Prog.Blocks[bi].Start == addr {
		add(from, to)
		return
	}
	// Target outside this function (validated programs only branch
	// intraprocedurally except via call/ret, so treat as function exit).
	add(from, Exit)
}

// NumNodes returns the node count including Entry and Exit.
func (g *Graph) NumNodes() int { return len(g.BlockOf) }

// Edges returns all edges in deterministic order.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for from, succs := range g.Succs {
		for _, to := range succs {
			es = append(es, Edge{Node(from), to})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

func (g *Graph) computeRPO() {
	n := g.NumNodes()
	seen := make([]bool, n)
	var post []Node
	var dfs func(Node)
	dfs = func(u Node) {
		seen[u] = true
		for _, v := range g.Succs[u] {
			if !seen[v] {
				dfs(v)
			}
		}
		post = append(post, u)
	}
	dfs(Entry)
	g.rpo = make([]Node, 0, len(post))
	g.rpoIdx = make([]int32, n)
	for i := range g.rpoIdx {
		g.rpoIdx[i] = -1
	}
	for i := len(post) - 1; i >= 0; i-- {
		g.rpoIdx[post[i]] = int32(len(g.rpo))
		g.rpo = append(g.rpo, post[i])
	}
}

// RPO returns the reverse postorder over nodes reachable from Entry.
func (g *Graph) RPO() []Node { return g.rpo }

// Reachable reports whether node u is reachable from Entry, in O(1).
func (g *Graph) Reachable(u Node) bool {
	return u >= 0 && int(u) < len(g.rpoIdx) && g.rpoIdx[u] >= 0
}

// computeDominators runs the Cooper–Harvey–Kennedy iterative algorithm.
func (g *Graph) computeDominators() {
	n := g.NumNodes()
	g.idom = make([]Node, n)
	for i := range g.idom {
		g.idom[i] = -1
	}
	g.idom[Entry] = Entry

	rpoIndex := g.rpoIdx
	intersect := func(a, b Node) Node {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = g.idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = g.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, u := range g.rpo {
			if u == Entry {
				continue
			}
			var newIdom Node = -1
			for _, p := range g.Preds[u] {
				if rpoIndex[p] < 0 || g.idom[p] < 0 {
					continue // unreachable or unprocessed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && g.idom[u] != newIdom {
				g.idom[u] = newIdom
				changed = true
			}
		}
	}
}

// Idom returns the immediate dominator of u (Entry's is Entry; unreachable
// nodes return -1).
func (g *Graph) Idom(u Node) Node { return g.idom[u] }

// numberDomTree numbers the dominator tree in one iterative DFS from
// Entry, giving each reachable node its preorder and postorder time. The
// children lists live in one flat array: u's children are
// kids[start[u]:start[u+1]].
func (g *Graph) numberDomTree() {
	n := g.NumNodes()
	start := make([]int32, n+1)
	for _, u := range g.rpo[1:] { // rpo[0] is Entry, the root
		start[g.idom[u]+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	kids := make([]Node, len(g.rpo)-1)
	next := slices.Clone(start[:n])
	for _, u := range g.rpo[1:] {
		p := g.idom[u]
		kids[next[p]] = u
		next[p]++
	}
	// Each next[u] is now start[u+1]; the walk counts it back down to
	// start[u], visiting u's children last to first.
	g.pre = make([]int32, n)
	g.post = make([]int32, n)
	clock := int32(1) // pre[Entry] is 0
	stack := []Node{Entry}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		if next[u] > start[u] {
			next[u]--
			v := kids[next[u]]
			g.pre[v] = clock
			clock++
			stack = append(stack, v)
			continue
		}
		g.post[u] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
}

// Dominates reports whether a dominates b, in O(1): both must be reachable
// and b's dominator-tree interval must nest inside a's.
func (g *Graph) Dominates(a, b Node) bool {
	if !g.Reachable(a) || !g.Reachable(b) {
		return false
	}
	return g.pre[a] <= g.pre[b] && g.post[b] <= g.post[a]
}

// BackEdges returns the edges u→v where v dominates u (natural-loop back
// edges), in deterministic order.
func (g *Graph) BackEdges() []Edge {
	var out []Edge
	for _, e := range g.Edges() {
		if g.Reachable(e.From) && g.Dominates(e.To, e.From) {
			out = append(out, e)
		}
	}
	return out
}

// Loop describes a natural loop.
type Loop struct {
	Head Node
	// Body contains the loop's nodes including Head, sorted.
	Body []Node
}

// NaturalLoops returns the natural loops of the graph, one per back-edge
// head (back edges sharing a head are merged), sorted by head. A loop body is
// collected by walking predecessors from each of its back-edge tails up to
// the head; membership is one stamp slice shared by all heads, so the cost is
// linear in the total size of the bodies.
func (g *Graph) NaturalLoops() []Loop {
	back := g.BackEdges()
	sort.Slice(back, func(i, j int) bool { return back[i].To < back[j].To }) // group by head
	stamp := make([]int32, g.NumNodes())
	loops := make([]Loop, 0, len(back))
	var stack []Node
	for i := 0; i < len(back); {
		h := back[i].To
		mark := int32(len(loops) + 1)
		stamp[h] = mark
		body := []Node{h}
		for ; i < len(back) && back[i].To == h; i++ {
			stack = append(stack[:0], back[i].From)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if stamp[u] == mark {
					continue
				}
				stamp[u] = mark
				body = append(body, u)
				stack = append(stack, g.Preds[u]...)
			}
		}
		slices.Sort(body)
		loops = append(loops, Loop{Head: h, Body: body})
	}
	return loops
}

// BuildAll builds CFGs for every function of p.
func BuildAll(p *prog.Program) ([]*Graph, error) {
	out := make([]*Graph, len(p.Funcs))
	for fi := range p.Funcs {
		g, err := Build(p, fi)
		if err != nil {
			return nil, err
		}
		out[fi] = g
	}
	return out, nil
}
