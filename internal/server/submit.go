package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"netpath/internal/asm"
	"netpath/internal/dynamo"
	"netpath/internal/prog"
	"netpath/internal/workload"
)

// runRequest is the POST /v1/run submission envelope. Exactly one of Asm,
// Prog, or Bench names the guest program; everything else tunes the run
// within the tenant's quotas.
type runRequest struct {
	// Tenant is the submitting tenant's identity (required; admission
	// fairness, rate limits, and table shards key on it).
	Tenant string `json:"tenant"`
	// Name labels the run in results (defaults per program form).
	Name string `json:"name,omitempty"`

	// Asm is internal/asm assembly text.
	Asm string `json:"asm,omitempty"`
	// Prog is an encoded netpath-prog/v1 program document.
	Prog json.RawMessage `json:"prog,omitempty"`
	// Bench names a built-in workload benchmark; Scale sizes it.
	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`

	// Scheme selects the prediction scheme: "net" (default), "pp", "static".
	Scheme string `json:"scheme,omitempty"`
	// Tau overrides the hot threshold (0 = scheme default).
	Tau int64 `json:"tau,omitempty"`
	// MaxSteps caps machine steps (0 = tenant default; capped by quota).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// DeadlineMS caps wall-clock run time in milliseconds (0 = tenant
	// default; capped by quota).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// ChaosSeed, with any nonzero rate below, runs the guest under a seeded
	// fault injector — the soak harness's knob, also open to tenants who
	// want to rehearse their guests against adversity.
	ChaosSeed     int64   `json:"chaos_seed,omitempty"`
	ChaosTrapPerM float64 `json:"chaos_trap_per_m,omitempty"`
	ChaosSoftPerM float64 `json:"chaos_soft_per_m,omitempty"`

	// resolved by decode/resolve, not wire fields
	program *prog.Program
	scheme  dynamo.Scheme
}

// runResponse is the successful POST /v1/run reply.
type runResponse struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	// Mode is "dynamo" or "interp"; Degraded is true when the ladder forced
	// interp-only on a guest that asked for translation.
	Mode     string `json:"mode"`
	Degraded bool   `json:"degraded,omitempty"`

	Steps     int64   `json:"steps"`
	Fragments int     `json:"fragments,omitempty"`
	Flushes   int     `json:"flushes,omitempty"`
	SpeedupPC float64 `json:"speedup_pct,omitempty"`
	CachedPC  float64 `json:"cached_pct,omitempty"`
	BailedOut bool    `json:"bailed_out,omitempty"`
	// Deopts reports published tier-2 superblocks torn down during the run.
	Deopts int64 `json:"tier2_deopts,omitempty"`
	// Restored reports fragments pre-installed from the tenant's stored
	// profile before the first guest instruction (0 = cold start).
	Restored int     `json:"restored_fragments,omitempty"`
	Regs     []int64 `json:"regs"`

	QueueNS int64 `json:"queue_ns"`
	RunNS   int64 `json:"run_ns"`
	// TraceID names the retained request trace, present when the run was
	// head-sampled or tail-promoted; fetch it via GET /v1/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// maxDecodeDepth bounds nothing today (the envelope is flat) but
// MaxBytesReader bounds everything: decodeRequest must be called with a body
// already wrapped by http.MaxBytesReader.
func decodeRequest(body io.Reader) (*runRequest, *apiError) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req runRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, errf(CodeQuota, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "malformed JSON: %v", err)
	}
	// Trailing garbage after the envelope is a malformed request, not noise.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "trailing data after request object")
	}
	return &req, nil
}

// validate checks the envelope shape (cheap, before any admission cost).
func (r *runRequest) validate() *apiError {
	if r.Tenant == "" {
		return errf(CodeBadRequest, http.StatusBadRequest, "missing tenant")
	}
	if len(r.Tenant) > 64 || strings.ContainsAny(r.Tenant, " \t\n\r\"") {
		return errf(CodeBadRequest, http.StatusBadRequest, "invalid tenant name")
	}
	forms := 0
	if r.Asm != "" {
		forms++
	}
	if len(r.Prog) > 0 {
		forms++
	}
	if r.Bench != "" {
		forms++
	}
	if forms == 0 {
		return errf(CodeBadRequest, http.StatusBadRequest,
			"no program: provide exactly one of asm, prog, bench")
	}
	if forms > 1 {
		return errf(CodeBadRequest, http.StatusBadRequest,
			"ambiguous program: provide exactly one of asm, prog, bench")
	}
	if r.MaxSteps < 0 || r.DeadlineMS < 0 || r.Tau < 0 {
		return errf(CodeBadRequest, http.StatusBadRequest,
			"max_steps, deadline_ms, and tau must be non-negative")
	}
	if r.Scale < 0 || r.Scale > 1 {
		return errf(CodeBadRequest, http.StatusBadRequest, "scale must be in (0, 1]")
	}
	if r.ChaosTrapPerM < 0 || r.ChaosSoftPerM < 0 ||
		r.ChaosTrapPerM > 1e6 || r.ChaosSoftPerM > 1e6 {
		return errf(CodeBadRequest, http.StatusBadRequest, "chaos rates must be in [0, 1e6] per million steps")
	}
	switch r.Scheme {
	case "", "net", "pp", "pathprofile", "static":
	default:
		return errf(CodeBadRequest, http.StatusBadRequest,
			"unknown scheme %q (want net, pp, or static)", r.Scheme)
	}
	return nil
}

// resolve builds the guest program (bench programs come from the server's
// shared set), enforces size quotas, and gates it through the static
// verifier. This is the expensive pre-admission stage: a program the
// verifier refuses never occupies a queue slot.
func (r *runRequest) resolve(q Quotas, bench *benchPrograms) *apiError {
	var p *prog.Program
	switch {
	case r.Asm != "":
		name := r.Name
		if name == "" {
			name = "asm"
		}
		var err error
		p, err = asm.Parse(name, r.Asm)
		if err != nil {
			return errf(CodeParse, http.StatusBadRequest, "assemble: %v", err)
		}
	case len(r.Prog) > 0:
		var err error
		p, err = prog.DecodeJSON(r.Prog)
		if err != nil {
			return errf(CodeParse, http.StatusBadRequest, "decode prog: %v", err)
		}
	default:
		b, err := workload.ByName(r.Bench)
		if err != nil {
			return errf(CodeBadRequest, http.StatusBadRequest, "%v", err)
		}
		scale := r.Scale
		if scale == 0 {
			scale = 0.01
		}
		p, err = bench.get(b, scale)
		if err != nil {
			return errf(CodeInternal, http.StatusInternalServerError, "build benchmark: %v", err)
		}
	}
	if len(p.Instrs) > q.MaxInstrs {
		return errf(CodeQuota, http.StatusUnprocessableEntity,
			"program has %d instructions; tenant quota is %d", len(p.Instrs), q.MaxInstrs)
	}
	if p.MemSize > q.MaxMemWords {
		return errf(CodeQuota, http.StatusUnprocessableEntity,
			"program wants %d memory words; tenant quota is %d", p.MemSize, q.MaxMemWords)
	}
	if r.MaxSteps > q.MaxSteps {
		return errf(CodeQuota, http.StatusUnprocessableEntity,
			"max_steps %d exceeds tenant quota %d", r.MaxSteps, q.MaxSteps)
	}
	if time.Duration(r.DeadlineMS)*time.Millisecond > q.MaxDeadline {
		return errf(CodeQuota, http.StatusUnprocessableEntity,
			"deadline_ms %d exceeds tenant quota %dms", r.DeadlineMS, q.MaxDeadline.Milliseconds())
	}
	// dynamo.Verify is the memoized verdict dynamo.New gates on, so each
	// program image is verified once, here; failing fast keeps hostile
	// programs out of the queue entirely.
	if err := dynamo.Verify(p); err != nil {
		return errf(CodeVerify, http.StatusUnprocessableEntity, "verifier rejected program: %v", err)
	}
	if r.Name == "" {
		r.Name = p.Name
	}
	switch r.Scheme {
	case "pp", "pathprofile":
		r.scheme = dynamo.SchemePathProfile
	case "static":
		r.scheme = dynamo.SchemeStatic
	default:
		r.scheme = dynamo.SchemeNET
	}
	r.program = p
	return nil
}

// benchPrograms shares built benchmark programs across requests. A
// benchmark is a pure function of (name, scale) and a built program is
// immutable, so every request for the same pair runs the same image.
// Rebuilding it per request was the largest source of garbage on a
// bench-request mix, and each rebuild handed the engine's per-program memo
// a fresh image to digest. Crossing benchCacheCap drops every entry; a
// program's size does not depend on its scale, so the cap bounds memory.
type benchPrograms struct {
	mu sync.Mutex
	m  map[benchKey]*prog.Program
}

type benchKey struct {
	name  string
	scale float64
}

// benchCacheCap bounds benchPrograms: the nine benchmarks at a default and
// one other scale.
const benchCacheCap = 18

// get returns b built at scale, building it on first request.
func (c *benchPrograms) get(b workload.Benchmark, scale float64) (*prog.Program, error) {
	k := benchKey{b.Name, scale}
	c.mu.Lock()
	p := c.m[k]
	c.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := b.Build(scale)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= benchCacheCap {
		c.m = make(map[benchKey]*prog.Program)
	}
	c.m[k] = p
	c.mu.Unlock()
	return p, nil
}

// budgets returns the effective step and wall-clock budgets under q.
func (r *runRequest) budgets(q Quotas) (steps int64, deadline time.Duration) {
	steps = r.MaxSteps
	if steps == 0 {
		steps = q.DefaultSteps
	}
	deadline = time.Duration(r.DeadlineMS) * time.Millisecond
	if deadline == 0 {
		deadline = q.DefaultDeadline
	}
	return steps, deadline
}
