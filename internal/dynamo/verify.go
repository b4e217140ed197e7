// Static program admission and the static scheme's load-time translation.
//
// Every System runs the CFG verifier (internal/cfg) over its program before
// executing a single instruction: a program with error-class malformations
// (wild jump targets, fall-through off the end, counterless infinite loops,
// ...) is refused with a structured *cfg.VerifyError rather than risking an
// interpreter fault mid-run. Verdicts are memoized per program image (see
// programMemo): an experiment grid spawns many Systems over the same
// program, often rebuilt, and the verifier only needs to run once.
package dynamo

import (
	"crypto/sha256"
	"sync"

	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/staticpred"
)

// programMemo is the one memo of per-program static work: the verifier's
// verdict and, on the first tier-2 compile that wants them, the dataflow
// facts. It is keyed by prog.Digest, a SHA-256 over everything the verifier
// and the analysis read, so every rebuilt copy of a program shares one entry
// and a crafted program cannot collide with another to borrow its verdict
// (the FNV Fingerprint is not collision resistant, and netpathd runs
// untrusted programs). No entry refers to a program: verdicts are plain
// values and facts are stored detached, so the memo never pins a program
// against garbage collection.
//
// The memo is bounded. A resident server verifies an endless stream of
// fresh programs; crossing memoCap drops every entry at once (recomputing
// is cheap relative to a run and staleness is impossible). An experiment
// grid rebuilds its programs but holds one entry per distinct program, tens
// at most, so only a long stream of fresh programs ever reaches the cap.
var (
	memoMu      sync.Mutex
	programMemo = make(map[[sha256.Size]byte]*memoEntry)
)

// memoCap bounds programMemo.
const memoCap = 256

// memoEntry is one program image's static work, each part computed at most
// once per entry.
type memoEntry struct {
	verifyOnce sync.Once
	verdict    error

	factsOnce sync.Once
	// facts has Prog and Graphs cleared; ProgramFacts binds a copy to the
	// caller's program. nil when the analysis failed.
	facts *dataflow.Facts
}

// memoFor returns p's memo entry, creating an empty one if needed.
func memoFor(p *prog.Program) *memoEntry {
	d := p.Digest()
	memoMu.Lock()
	defer memoMu.Unlock()
	e := programMemo[d]
	if e == nil {
		if len(programMemo) >= memoCap {
			clear(programMemo)
		}
		e = &memoEntry{}
		programMemo[d] = e
	}
	return e
}

// verifyGate returns the static verifier's verdict for p, computing it at
// most once per resident program image.
func verifyGate(p *prog.Program) error {
	e := memoFor(p)
	e.verifyOnce.Do(func() { e.verdict = cfg.VerifyProgram(p) })
	return e.verdict
}

// ProgramFacts returns the whole-program dataflow facts for p, computed at
// most once per resident program image, or nil if the analysis failed (a
// verified program always analyzes; nil is pure defense). These are the
// facts tier-2 elision and validation use, so a report built from them
// describes exactly what drove the compiler. The memo keeps no CFGs, so the
// returned facts have nil Graphs.
func ProgramFacts(p *prog.Program) *dataflow.Facts {
	e := memoFor(p)
	e.factsOnce.Do(func() {
		if f, err := dataflow.Analyze(p); err == nil {
			f.Prog, f.Graphs = nil, nil
			e.facts = f
		}
	})
	if e.facts == nil {
		return nil
	}
	f := *e.facts
	f.Prog = p
	return &f
}

// prebuildStatic populates the fragment cache from the static predictor's
// maximum-likelihood walks — the static scheme's whole "profiling" phase,
// run at load time with zero runtime counters. Each completed walk becomes
// a trace recorded exactly as the online recorder would have recorded it
// (one TraceStep per predicted instruction), then optimized and installed
// through the ordinary emit path so cycle accounting charges the one-time
// translation cost. Walks that abort on indirect control carry no steps and
// are skipped; a trailing halt is trimmed because online recordings end at
// path boundaries, never at the halt itself.
func (s *System) prebuildStatic(p *prog.Program) {
	a, err := staticpred.Analyze(p)
	if err != nil {
		// Analyze only fails where the verifier would have failed first;
		// a verified program always analyzes. Degrade to an empty cache.
		return
	}
	built := 0
	for _, w := range a.Walks() {
		if w.Aborted || len(w.Steps) == 0 {
			continue
		}
		steps := make([]TraceStep, 0, len(w.Steps))
		for _, st := range w.Steps {
			in := p.Instrs[st.PC]
			if in.Op == isa.Halt {
				break
			}
			steps = append(steps, TraceStep{PC: st.PC, In: in, Next: st.Next})
		}
		if len(steps) == 0 || s.cache[w.Head] != nil {
			continue
		}
		s.emit(w.Head, steps)
		built++
	}
	if s.tel != nil {
		s.tel.Add(telStaticPrebuilt, int64(built))
	}
}
