package server

import (
	"net/http"
	"testing"

	"netpath/internal/asm"
	"netpath/internal/cfg"
	"netpath/internal/prog"
	"netpath/internal/workload"
)

// TestBenchProgramsShared: requests for one (benchmark, scale) pair share a
// single built program, other scales get their own, and the set stays
// within its cap however many scales clients ask for.
func TestBenchProgramsShared(t *testing.T) {
	var c benchPrograms
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	get := func(scale float64) *prog.Program {
		t.Helper()
		p, err := c.get(b, scale)
		if err != nil {
			t.Fatalf("build at %v: %v", scale, err)
		}
		return p
	}
	p := get(0.01)
	if get(0.01) != p {
		t.Error("two requests for one benchmark and scale built two programs")
	}
	if get(0.02) == p {
		t.Error("a different scale reused the program")
	}
	for i := 1; i <= 3*benchCacheCap; i++ {
		get(float64(i) / 1000)
		if len(c.m) > benchCacheCap {
			t.Fatalf("%d programs held, cap %d", len(c.m), benchCacheCap)
		}
	}
}

// TestAdmissionVerifyMemoized: admission gates on dynamo's memoized
// verdict. A malformed program is refused with 422 verify_rejected and the
// verifier's own message on every submission, and a second admission of one
// image finds the verdict in the memo: on gcc the verifier allocates tens of
// thousands of objects, a memo hit almost none.
func TestAdmissionVerifyMemoized(t *testing.T) {
	_, ts := startServer(t, quietCfg(t))
	p, err := asm.Parse("asm", hangAsm)
	if err != nil {
		t.Fatal(err)
	}
	want := "verifier rejected program: " + cfg.VerifyProgram(p).Error()
	for i := 0; i < 2; i++ {
		code, _, apiErr, _ := postRun(t, ts.URL, map[string]any{"tenant": "a", "asm": hangAsm})
		if code != http.StatusUnprocessableEntity || apiErr == nil || apiErr.Code != CodeVerify || apiErr.Message != want {
			t.Fatalf("submission %d: status %d, err %+v; want 422 %s %q", i, code, apiErr, CodeVerify, want)
		}
	}

	var bench benchPrograms
	admit := func() {
		r := runRequest{Tenant: "a", Bench: "gcc", Scale: 0.01}
		if e := r.resolve(DefaultQuotas(), &bench); e != nil {
			t.Fatalf("gcc refused: %+v", e)
		}
	}
	admit()
	if allocs := testing.AllocsPerRun(3, admit); allocs > 20 {
		t.Errorf("re-admitting gcc allocated %.0f objects: the verifier ran again", allocs)
	}
}
