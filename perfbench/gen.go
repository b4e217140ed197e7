package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

const (
	// serveScale is the workload scale every serve_zipf request asks for.
	serveScale = 0.05
	// zipfS is the Zipf exponent over the nine programs in Table-1 rank.
	zipfS = 1.1
	// zipfBlock is the stratum size: every block of this many consecutive
	// requests holds each program exactly zipfCounts times, in a seeded
	// order, so every seed gives the same mix and a run that ends on a
	// block boundary measures it exactly.
	zipfBlock = 50
	// stepBudget is the server's default per-request step budget
	// (server.DefaultQuotas().DefaultSteps).
	stepBudget = 50_000_000
)

// tenantNames is the small fixed tenant set: (tenant, program) pairs
// repeat, so serve_zipf exercises warm starts. The k-th request for a
// program goes to tenant k mod 4, so which runs start cold does not depend
// on the seed.
var tenantNames = []string{"t0", "t1", "t2", "t3"}

// reference is the plain interpreter's result for one program.
type reference struct {
	steps int64
	regs  [isa.NumRegs]int64
}

// vmStats accumulates the reference interpretation's work and time.
type vmStats struct {
	steps int64
	ns    int64
}

// interpret runs p on the plain VM, which never goes through dynamo, and
// adds the run to st.
func (st *vmStats) interpret(p *prog.Program, budget int64) (reference, error) {
	start := time.Now()
	m := vm.New(p)
	err := m.Run(budget)
	st.ns += time.Since(start).Nanoseconds()
	st.steps += m.Steps
	if err != nil {
		return reference{}, err
	}
	return reference{steps: m.Steps, regs: m.Reg}, nil
}

// request is one generated serve_zipf request with its oracle.
type request struct {
	tenant string
	bench  string // the program name
	body   []byte // the encoded /v1/run request
	ref    *reference
}

// zipfCounts splits a block of n requests over k ranks in proportion to
// Zipf(s), by largest remainder.
func zipfCounts(n, k int, s float64) []int {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	counts := make([]int, k)
	order := make([]int, k)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / total
		counts[i] = int(exact)
		left -= counts[i]
		w[i] = exact - float64(counts[i])
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	return counts
}

// zipfRequests returns blocks whole blocks of serve_zipf requests drawn
// from seed. Requests carry no oracle yet (see benchRefs).
func zipfRequests(seed int64, blocks int) []request {
	r := rand.New(rand.NewSource(seed))
	names := workload.Names()
	counts := zipfCounts(zipfBlock, len(names), zipfS)
	var block []string
	for i, c := range counts {
		for j := 0; j < c; j++ {
			block = append(block, names[i])
		}
	}
	out := make([]request, 0, blocks*zipfBlock)
	seen := map[string]int{}
	for b := 0; b < blocks; b++ {
		for _, i := range r.Perm(len(block)) {
			name := block[i]
			out = append(out, request{
				tenant: tenantNames[seen[name]%len(tenantNames)],
				bench:  name,
			})
			seen[name]++
		}
	}
	return out
}

// benchRefs builds the nine programs at scale and interprets each once
// on the reference VM.
func benchRefs(scale float64) (map[string]*reference, vmStats, error) {
	var st vmStats
	refs := map[string]*reference{}
	for _, b := range workload.All() {
		p, err := b.Build(scale)
		if err != nil {
			return nil, st, fmt.Errorf("build %s: %w", b.Name, err)
		}
		ref, err := st.interpret(p, 0)
		if err != nil {
			return nil, st, fmt.Errorf("reference run of %s: %w", b.Name, err)
		}
		refs[b.Name] = &ref
	}
	return refs, st, nil
}
