package prog

import (
	"strings"
	"testing"

	"netpath/internal/isa"
)

// buildLoop builds a canonical two-function program:
//
//	main:  r0 := 0
//	loop:  r0 := r0 + 1
//	       call f
//	       if r0 < 10 goto loop
//	       halt
//	f:     nop
//	       ret
func buildLoop(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("loop")
	b.SetMemSize(8)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("loop")
	m.AddI(0, 0, 1)
	m.Call("f")
	m.BrI(isa.Lt, 0, 10, "loop")
	m.Halt()
	f := b.Func("f")
	f.Nop()
	f.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildLoopStructure(t *testing.T) {
	p := buildLoop(t)
	if got, want := len(p.Funcs), 2; got != want {
		t.Fatalf("len(Funcs) = %d, want %d", got, want)
	}
	if p.Funcs[0].Name != "main" || p.Funcs[1].Name != "f" {
		t.Errorf("func names = %q, %q", p.Funcs[0].Name, p.Funcs[1].Name)
	}
	if p.Entry != p.Funcs[0].Entry {
		t.Errorf("entry = %d, want %d", p.Entry, p.Funcs[0].Entry)
	}
	// main: movi | addi, call | bri | halt -> blocks at 0, loop, after-call, halt.
	if len(p.Blocks) < 4 {
		t.Errorf("expected >= 4 blocks, got %d", len(p.Blocks))
	}
	for _, blk := range p.Blocks {
		if !p.Instrs[blk.End-1].Op.IsControl() {
			t.Errorf("block @%d does not end with control: %v", blk.Start, p.Instrs[blk.End-1])
		}
	}
}

func TestFallThroughJumpInsertion(t *testing.T) {
	// A label in the middle of straight-line code forces a block split; the
	// builder must insert a jump so the earlier block ends in control.
	b := NewBuilder("ft")
	m := b.Func("main")
	m.MovI(0, 1)
	m.Label("mid") // fall-through into a label
	m.MovI(1, 2)
	m.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	nj := 0
	for _, in := range p.Instrs {
		if in.Op == isa.Jmp {
			nj++
		}
	}
	if nj != 1 {
		t.Fatalf("inserted jumps = %d, want 1\n%s", nj, p.Disasm())
	}
	// The inserted jump must target the labeled instruction.
	for a, in := range p.Instrs {
		if in.Op == isa.Jmp && int(in.Target) != a+1 {
			t.Errorf("fall-through jmp @%d targets %d, want %d", a, in.Target, a+1)
		}
	}
}

func TestBlockAndFuncLookup(t *testing.T) {
	p := buildLoop(t)
	for addr := range p.Instrs {
		bi := p.BlockAt(addr)
		if bi < 0 {
			t.Fatalf("BlockAt(%d) = -1", addr)
		}
		blk := p.Blocks[bi]
		if addr < blk.Start || addr >= blk.End {
			t.Fatalf("BlockAt(%d) = block [%d,%d)", addr, blk.Start, blk.End)
		}
		fi := p.FuncOf(addr)
		f := p.Funcs[fi]
		if addr < f.Entry || addr >= f.End {
			t.Fatalf("FuncOf(%d) = func [%d,%d)", addr, f.Entry, f.End)
		}
	}
	if p.BlockAt(-1) != -1 || p.BlockAt(p.Len()) != -1 {
		t.Error("out-of-range BlockAt must be -1")
	}
	if p.FuncByName("f") == nil || p.FuncByName("nosuch") != nil {
		t.Error("FuncByName lookup wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder("e").Build(); err == nil {
			t.Error("want error for empty builder")
		}
	})
	t.Run("emptyFunc", func(t *testing.T) {
		b := NewBuilder("e")
		b.Func("main")
		if _, err := b.Build(); err == nil {
			t.Error("want error for empty function")
		}
	})
	t.Run("noTerminator", func(t *testing.T) {
		b := NewBuilder("e")
		f := b.Func("main")
		f.MovI(0, 1)
		if _, err := b.Build(); err == nil {
			t.Error("want error for function without terminator")
		}
	})
	t.Run("conditionalTerminator", func(t *testing.T) {
		b := NewBuilder("e")
		f := b.Func("main")
		f.Label("top")
		f.BrI(isa.Lt, 0, 1, "top")
		if _, err := b.Build(); err == nil {
			t.Error("want error for conditional function terminator")
		}
	})
	t.Run("undefinedLabel", func(t *testing.T) {
		b := NewBuilder("e")
		f := b.Func("main")
		f.Jmp("nowhere")
		f.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("want error for undefined label")
		}
	})
	t.Run("duplicateLabel", func(t *testing.T) {
		b := NewBuilder("e")
		f := b.Func("main")
		f.Label("x")
		f.Nop()
		f.Label("x")
		f.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("want error for duplicate label")
		}
	})
	t.Run("labelAtEnd", func(t *testing.T) {
		b := NewBuilder("e")
		f := b.Func("main")
		f.Halt()
		f.Label("end")
		if _, err := b.Build(); err == nil {
			t.Error("want error for label at function end")
		}
	})
	t.Run("callNonFunction", func(t *testing.T) {
		b := NewBuilder("e")
		f := b.Func("main")
		f.Label("notfn")
		f.Nop()
		f.Call("notfn2")
		f.Halt()
		f.Label("notfn2")
		f.Nop()
		f.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("want error for call to non-entry label")
		}
	})
}

func TestMemInit(t *testing.T) {
	b := NewBuilder("mem")
	b.SetMemSize(16)
	b.SetMem(3, 77)
	f := b.Func("main")
	f.Label("tgt")
	f.Nop()
	f.Halt()
	b.SetMemLabel(4, "tgt")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var got77, gotTgt bool
	for _, mi := range p.InitMem {
		if mi.Addr == 3 && mi.Value == 77 {
			got77 = true
		}
		if mi.Addr == 4 {
			gotTgt = true
			if !p.IsBlockStart(int(mi.Value)) {
				t.Errorf("mem label resolved to %d, not a block start", mi.Value)
			}
		}
	}
	if !got77 || !gotTgt {
		t.Errorf("InitMem = %+v, missing entries", p.InitMem)
	}
}

func TestMemInitOutOfRange(t *testing.T) {
	b := NewBuilder("mem")
	b.SetMemSize(2)
	b.SetMem(5, 1)
	f := b.Func("main")
	f.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("want error for memory init beyond mem size")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := buildLoop(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	// Retarget a branch mid-block.
	p2 := buildLoop(t)
	for a, in := range p2.Instrs {
		if in.Op == isa.BrI {
			p2.Instrs[a].Target = int32(a) // a is mid-block (the branch itself)
		}
	}
	// The branch instruction's own address starts no block unless it is one.
	if p2.IsBlockStart(findOp(p2, isa.BrI)) {
		t.Skip("layout made branch a block start; corruption not applicable")
	}
	if err := p2.Validate(); err == nil {
		t.Error("want error for mid-block branch target")
	}

	// Entry out of range.
	p3 := buildLoop(t)
	p3.Entry = p3.Len() + 5
	if err := p3.Validate(); err == nil {
		t.Error("want error for out-of-range entry")
	}
}

func findOp(p *Program, op isa.Op) int {
	for a, in := range p.Instrs {
		if in.Op == op {
			return a
		}
	}
	return -1
}

func TestDisasm(t *testing.T) {
	p := buildLoop(t)
	d := p.Disasm()
	for _, want := range []string{"func main:", "func f:", "call", "bri.lt", "halt", "ret"} {
		if !strings.Contains(d, want) {
			t.Errorf("Disasm missing %q:\n%s", want, d)
		}
	}
}

func TestSetEntry(t *testing.T) {
	b := NewBuilder("entry")
	m := b.Func("main")
	m.Halt()
	g := b.Func("alt")
	g.Halt()
	b.SetEntry("alt")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Entry != p.FuncByName("alt").Entry {
		t.Errorf("entry = %d, want alt entry %d", p.Entry, p.FuncByName("alt").Entry)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild must panic on error")
		}
	}()
	NewBuilder("bad").MustBuild()
}

func TestFingerprint(t *testing.T) {
	a := buildLoop(t)
	b := buildLoop(t)
	if a.Fingerprint() == 0 {
		t.Fatal("fingerprint should not be zero for a real program")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical programs must share a fingerprint")
	}
	// Any executable difference must change the hash: code...
	c := buildLoop(t)
	c.Instrs = append([]isa.Instr(nil), c.Instrs...)
	c.Instrs[1].Imm++
	c.Freeze()
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("instruction change did not change fingerprint")
	}
	// ...entry point...
	d := buildLoop(t)
	d.Entry++
	d.Freeze()
	if d.Fingerprint() == a.Fingerprint() {
		t.Fatal("entry change did not change fingerprint")
	}
	// ...and initial memory.
	e := buildLoop(t)
	e.InitMem = append(e.InitMem, MemInit{Addr: 1, Value: 7})
	e.Freeze()
	if e.Fingerprint() == a.Fingerprint() {
		t.Fatal("memory init change did not change fingerprint")
	}
	// Name is metadata, not code: it does not affect the fingerprint.
	f := buildLoop(t)
	f.Name = "other"
	f.Freeze()
	if f.Fingerprint() != a.Fingerprint() {
		t.Fatal("name change should not change fingerprint")
	}
}

// TestDigest: the digest covers everything Fingerprint does plus the
// function/block structure and the name, so programs that share a
// Fingerprint but not their layout still get different digests.
func TestDigest(t *testing.T) {
	a := buildLoop(t)
	if a.Digest() != buildLoop(t).Digest() {
		t.Fatal("identical programs must share a digest")
	}
	// Merge the two functions into one: same instruction words, so the
	// same Fingerprint, but a different function table.
	merged := buildLoop(t)
	merged.Funcs = []Func{{Name: "main", Entry: 0, End: merged.Len()}}
	merged.Blocks = append([]Block(nil), merged.Blocks...)
	for i := range merged.Blocks {
		merged.Blocks[i].Func = 0
	}
	merged.Freeze()
	if merged.Fingerprint() != a.Fingerprint() {
		t.Fatal("function table change should not change the fingerprint")
	}
	if merged.Digest() == a.Digest() {
		t.Fatal("function table change did not change the digest")
	}
	named := buildLoop(t)
	named.Name = "other"
	named.Freeze()
	if named.Digest() == a.Digest() {
		t.Fatal("name change did not change the digest")
	}
	// Freeze after a mutation recomputes a digest taken earlier.
	c := buildLoop(t)
	before := c.Digest()
	c.Instrs = append([]isa.Instr(nil), c.Instrs...)
	c.Instrs[1].Imm++
	c.Freeze()
	if c.Digest() == before {
		t.Fatal("re-Freeze kept a stale digest")
	}
}
