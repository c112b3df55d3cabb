package ir

import (
	"fmt"
	"strings"
	"testing"
)

func TestWidthAccessors(t *testing.T) {
	tests := []struct {
		w     Width
		bits  int
		bytes int
		mask  uint64
	}{
		{W1, 1, 0, 1},
		{W8, 8, 1, 0xff},
		{W16, 16, 2, 0xffff},
		{W32, 32, 4, 0xffffffff},
		{W64, 64, 8, ^uint64(0)},
	}
	for _, tt := range tests {
		if got := tt.w.Bits(); got != tt.bits {
			t.Errorf("%v.Bits() = %d, want %d", tt.w, got, tt.bits)
		}
		if tt.w != W1 {
			if got := tt.w.Bytes(); got != tt.bytes {
				t.Errorf("%v.Bytes() = %d, want %d", tt.w, got, tt.bytes)
			}
		}
		if got := tt.w.Mask(); got != tt.mask {
			t.Errorf("%v.Mask() = %#x, want %#x", tt.w, got, tt.mask)
		}
	}
}

func TestSignExtend(t *testing.T) {
	tests := []struct {
		w    Width
		v    uint64
		want int64
	}{
		{W8, 0x7f, 127},
		{W8, 0x80, -128},
		{W8, 0xff, -1},
		{W16, 0x8000, -32768},
		{W32, 0xffffffff, -1},
		{W32, 0x7fffffff, 0x7fffffff},
		{W64, ^uint64(0), -1},
	}
	for _, tt := range tests {
		if got := tt.w.SignExtend(tt.v); got != tt.want {
			t.Errorf("%v.SignExtend(%#x) = %d, want %d", tt.w, tt.v, got, tt.want)
		}
	}
}

func TestOperandConstructors(t *testing.T) {
	r := R(5)
	if !r.IsReg() || r.Reg() != 5 {
		t.Errorf("R(5) is not register 5")
	}
	c := C(0xdead)
	if !c.IsImm() || c.Imm() != 0xdead {
		t.Errorf("C(0xdead) is not immediate 0xdead")
	}
	ci := CI(-1)
	if ci.Imm() != ^uint64(0) {
		t.Errorf("CI(-1) = %#x", ci.Imm())
	}
	cf := CF(1.0)
	if cf.Imm() != 0x3ff0000000000000 {
		t.Errorf("CF(1.0) = %#x", cf.Imm())
	}
}

func TestRegReadsAndSlots(t *testing.T) {
	in := Instr{
		Op: OpStore, W: W32,
		Dst: NoReg,
		A:   R(3), B: R(7), C: noneOperand,
	}
	reads := in.RegReads(nil)
	if len(reads) != 2 || reads[0] != 3 || reads[1] != 7 {
		t.Fatalf("RegReads = %v, want [3 7]", reads)
	}
	if in.NumRegReads() != 2 {
		t.Fatalf("NumRegReads = %d", in.NumRegReads())
	}
	if in.ReadSlot(0) != 3 || in.ReadSlot(1) != 7 {
		t.Fatalf("ReadSlot mismatch")
	}
	// Immediates are not read slots.
	in2 := Instr{Op: OpAdd, W: W32, Dst: 1, A: R(2), B: C(9), C: noneOperand}
	if in2.NumRegReads() != 1 || in2.ReadSlot(0) != 2 {
		t.Fatalf("immediate treated as read slot")
	}
	// Call arguments are read slots.
	in3 := Instr{Op: OpCall, Dst: 1, A: noneOperand, B: noneOperand, C: noneOperand,
		Args: []Operand{R(4), C(1), R(6)}}
	if got := in3.NumRegReads(); got != 2 {
		t.Fatalf("call NumRegReads = %d, want 2", got)
	}
	if in3.ReadSlot(0) != 4 || in3.ReadSlot(1) != 6 {
		t.Fatalf("call ReadSlot mismatch")
	}
}

func TestSlotAndDestWidths(t *testing.T) {
	load := Instr{Op: OpLoad, W: W8, Dst: 1, A: R(2), B: noneOperand, C: noneOperand}
	if SlotWidth(&load, 0) != W64 {
		t.Errorf("load address slot width = %v, want W64", SlotWidth(&load, 0))
	}
	if DestWidth(&load) != W8 {
		t.Errorf("load dest width = %v, want W8", DestWidth(&load))
	}
	store := Instr{Op: OpStore, W: W16, Dst: NoReg, A: R(2), B: R(3), C: noneOperand}
	if SlotWidth(&store, 0) != W64 || SlotWidth(&store, 1) != W16 {
		t.Errorf("store slot widths wrong")
	}
	if DestWidth(&store) != 0 {
		t.Errorf("store has no dest width")
	}
	cmp := Instr{Op: OpICmpSLT, W: W32, Dst: 1, A: R(2), B: R(3), C: noneOperand}
	if DestWidth(&cmp) != W1 {
		t.Errorf("cmp dest width = %v, want W1", DestWidth(&cmp))
	}
	br := Instr{Op: OpCondBr, Dst: NoReg, A: R(2), B: noneOperand, C: noneOperand}
	if SlotWidth(&br, 0) != W1 {
		t.Errorf("condbr cond width = %v, want W1", SlotWidth(&br, 0))
	}
	fadd := Instr{Op: OpFAdd, W: W64, Dst: 1, A: R(2), B: R(3), C: noneOperand}
	if SlotWidth(&fadd, 0) != W64 || DestWidth(&fadd) != W64 {
		t.Errorf("fadd widths wrong")
	}
}

func TestBuilderSimpleProgram(t *testing.T) {
	mb := NewModule("t")
	f := mb.Func("main", 0)
	x := f.Let(C(40))
	y := f.Add(x, C(2))
	f.Out32(y)
	f.RetVoid()
	p, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Main != 0 || len(p.Funcs) != 1 {
		t.Fatalf("unexpected program shape")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderForwardCall(t *testing.T) {
	mb := NewModule("t")
	main := mb.Func("main", 0)
	r := main.Call("helper", C(20), C(22)) // declared below
	main.Out32(r)
	main.RetVoid()
	h := mb.Func("helper", 2)
	h.Ret(h.Add(h.Arg(0), h.Arg(1)))
	if _, err := mb.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderUnknownCall(t *testing.T) {
	mb := NewModule("t")
	main := mb.Func("main", 0)
	main.CallVoid("nope")
	main.RetVoid()
	if _, err := mb.Build(); err == nil {
		t.Fatal("expected unknown-call error")
	}
}

func TestBuilderMissingMain(t *testing.T) {
	mb := NewModule("t")
	f := mb.Func("f", 0)
	f.RetVoid()
	if _, err := mb.Build(); err == nil {
		t.Fatal("expected missing-main error")
	}
}

func TestBuilderUnboundLabel(t *testing.T) {
	mb := NewModule("t")
	f := mb.Func("main", 0)
	l := f.NewLabel()
	f.Jmp(l)
	f.RetVoid()
	if _, err := mb.Build(); err == nil {
		t.Fatal("expected unbound-label error")
	}
}

func TestBuilderGlobals(t *testing.T) {
	mb := NewModule("t")
	a := mb.GlobalBytes([]byte{1, 2, 3})
	b := mb.GlobalU32s([]uint32{0x11223344})
	c := mb.GlobalF64s([]float64{2.5})
	d := mb.GlobalZero(16)
	if a != GlobalBase {
		t.Errorf("first global at %#x, want %#x", a, uint64(GlobalBase))
	}
	for _, addr := range []uint64{b, c, d} {
		if addr%8 != 0 {
			t.Errorf("global at %#x not 8-byte aligned", addr)
		}
	}
	f := mb.Func("main", 0)
	f.RetVoid()
	p := mb.MustBuild()
	if len(p.Globals)%1 != 0 || len(p.Globals) < 3+4+8+16 {
		t.Errorf("global image too small: %d", len(p.Globals))
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := &Program{
		Funcs: []*Func{{
			Name: "main", NumRegs: 1,
			Code: []Instr{
				{Op: OpBr, Dst: NoReg, A: noneOperand, B: noneOperand, C: noneOperand, Off: 99},
			},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected branch-range error")
	}
}

func TestValidateCatchesBadReg(t *testing.T) {
	p := &Program{
		Funcs: []*Func{{
			Name: "main", NumRegs: 1,
			Code: []Instr{
				{Op: OpMov, W: W64, Dst: 0, A: R(9), B: noneOperand, C: noneOperand},
				{Op: OpRet, Dst: NoReg, A: noneOperand, B: noneOperand, C: noneOperand},
			},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected register-range error")
	}
}

func TestValidateRequiresTerminator(t *testing.T) {
	p := &Program{
		Funcs: []*Func{{
			Name: "main", NumRegs: 1,
			Code: []Instr{
				{Op: OpMov, W: W64, Dst: 0, A: C(1), B: noneOperand, C: noneOperand},
			},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected terminator error")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	mb := NewModule("smoke")
	f := mb.Func("main", 0)
	g := mb.GlobalU32s([]uint32{7})
	v := f.Load32(C(g), 0)
	f.If(f.Sgt(v, C(3)), func() {
		f.Out32(v)
	})
	f.CallVoid("aux", v)
	f.RetVoid()
	aux := mb.Func("aux", 1)
	aux.RetVoid()
	p := mb.MustBuild()
	asm := Disassemble(p)
	for _, want := range []string{"func main", "func aux", "load.i32", "call", "aux(r", "; entry"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

// TestValidateCachesMaxNR pins the program-wide read-slot bound the VM's
// injection horizon divides by: the largest Instr.NR over every function
// (a call's register arguments count), recomputed by each Validate and
// zero after a failed one. TestFingerprintStable keeps it out of the
// fingerprint.
func TestValidateCachesMaxNR(t *testing.T) {
	mb := NewModule("maxnr")
	f := mb.Func("main", 0)
	a := f.Let(C(1))
	b := f.Add(a, a)
	f.Out32(f.Call("wide", a, b, C(3), a))
	f.RetVoid()
	w := mb.Func("wide", 4)
	w.Ret(w.Add(w.Arg(0), w.Arg(1)))
	p := mb.MustBuild()
	if got := p.MaxNR(); got != 3 {
		t.Fatalf("MaxNR = %d, want 3 (the call's register arguments)", got)
	}
	p.Funcs[0].Code = p.Funcs[0].Code[:len(p.Funcs[0].Code)-1] // drop the terminator
	if err := p.Validate(); err == nil {
		t.Fatal("expected terminator error")
	}
	if got := p.MaxNR(); got != 0 {
		t.Fatalf("MaxNR after a failed Validate = %d, want 0", got)
	}
}

// TestValidateRejectsW1 pins that the width-carrying ops take W8..W64
// only: W1 has a bit count but no byte size, so a W1 load, store or Out
// would access or print nothing sensible.
func TestValidateRejectsW1(t *testing.T) {
	ops := []Op{OpLoad, OpStore, OpOut, OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI,
		OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr,
		OpICmpEQ, OpICmpNE, OpICmpULT, OpICmpULE, OpICmpSLT, OpICmpSLE}
	for _, op := range ops {
		mb := NewModule("t")
		f := mb.Func("main", 0)
		f.Let(C(GlobalBase))
		in := Instr{Op: op, W: W1, Dst: NoReg, A: C(GlobalBase), B: C(1), C: noneOperand}
		if op == OpStore || op == OpOut {
			f.emit(in)
		} else {
			f.emitDst(in)
		}
		f.RetVoid()
		_, err := mb.Build()
		if err == nil {
			t.Errorf("%s with width i1 accepted", op)
			continue
		}
		if want := fmt.Sprintf("pc 1: %s requires", op); !strings.Contains(err.Error(), want) {
			t.Errorf("%s with width i1: error %q does not contain %q", op, err, want)
		}
	}
}
