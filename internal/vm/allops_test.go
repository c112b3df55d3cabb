package vm

import (
	"encoding/binary"
	"math"
	"testing"

	"multiflip/internal/ir"
)

// TestEveryOpcodeExecutes runs a program touching every opcode and every
// dispatch token the IR defines (the specialized register-operand tokens
// included) and checks the numeric results against hand-computed
// values: the semantic oracle for the handler table, the VM's one
// hand-written implementation of the tokens. The generic tokens whose
// handlers mask or sign-extend by width are checked at several widths,
// on register operands carrying garbage above the width. The program
// runs twice — straight, which sprint executes with no observer step,
// and role-counting, which steps every instruction — and the two runs
// must agree, so the check covers both loops over the table.
func TestEveryOpcodeExecutes(t *testing.T) {
	mb := ir.NewModule("allops")
	g := mb.GlobalU64s([]uint64{0x1122334455667788, 0})
	sq := mb.Func("sq", 1)
	sq.Ret(sq.BinW(ir.W64, ir.OpMul, sq.Arg(0), sq.Arg(0)))
	f := mb.Func("main", 0)

	// Integer width variants.
	f.OutW(ir.W8, f.BinW(ir.W8, ir.OpAdd, ir.C(250), ir.C(10)))    // 4 (wraps at 8 bits)
	f.OutW(ir.W16, f.BinW(ir.W16, ir.OpMul, ir.C(300), ir.C(300))) // 90000 & 0xffff = 24464
	f.Out32(f.BinW(ir.W32, ir.OpUDiv, ir.C(7), ir.C(2)))           // 3
	f.Out32(f.BinW(ir.W32, ir.OpURem, ir.C(7), ir.C(2)))           // 1
	f.Out32(f.BinW(ir.W32, ir.OpSDiv, ir.CI(-7), ir.C(2)))         // -3
	f.Out32(f.BinW(ir.W32, ir.OpSRem, ir.CI(-7), ir.C(2)))         // -1
	f.Out32(f.BinW(ir.W32, ir.OpAnd, ir.C(0xF0), ir.C(0x3C)))      // 0x30
	f.Out32(f.BinW(ir.W32, ir.OpOr, ir.C(0xF0), ir.C(0x0F)))       // 0xFF
	f.Out32(f.BinW(ir.W32, ir.OpXor, ir.C(0xFF), ir.C(0x0F)))      // 0xF0
	f.Out32(f.BinW(ir.W32, ir.OpShl, ir.C(1), ir.C(33)))           // count masked: 1<<1 = 2
	f.Out32(f.BinW(ir.W32, ir.OpLShr, ir.C(0x80000000), ir.C(31))) // 1
	f.Out32(f.BinW(ir.W32, ir.OpAShr, ir.C(0x80000000), ir.C(31))) // -1

	// Conversions.
	f.Out64(f.Sext(ir.W8, ir.C(0xFF)))           // -1 as 64-bit
	f.Out64(f.Trunc(ir.W8, ir.C(0x1234)))        // 0x34
	f.Out64(f.Zext(ir.W16, ir.C(0xFFFFF)))       // 0xFFFF
	f.Out64(f.Bitcast(ir.CF(1.0)))               // raw bits of 1.0
	f.Out64(f.SiToFp(ir.W16, ir.C(0x8000)))      // -32768.0
	f.Out32(f.FpToSi(ir.W32, ir.CF(3.99)))       // 3
	f.Out32(f.FpToSi(ir.W32, ir.CF(1e300)))      // saturates to MaxInt32
	f.Out32(f.FpToSi(ir.W32, ir.CF(math.NaN()))) // 0

	// Floats.
	f.Out64(f.Fsub(ir.CF(1.5), ir.CF(0.25))) // 1.25
	f.Out64(f.Fneg(ir.CF(2.0)))              // -2
	f.Out64(f.Fabs(ir.CF(-2.5)))             // 2.5
	f.Out32(f.Feq(ir.CF(1), ir.CF(1)))       // 1
	f.Out32(f.Fne(ir.CF(1), ir.CF(2)))       // 1
	f.Out32(f.Flt(ir.CF(1), ir.CF(2)))       // 1
	f.Out32(f.Fle(ir.CF(2), ir.CF(2)))       // 1
	f.Out32(f.Fgt(ir.CF(3), ir.CF(2)))       // 1
	f.Out32(f.Fge(ir.CF(2), ir.CF(3)))       // 0

	// Comparisons not covered elsewhere.
	f.Out32(f.Ule(ir.C(2), ir.C(2)))   // 1
	f.Out32(f.Sle(ir.CI(-3), ir.C(0))) // 1
	f.Out32(f.Uge(ir.C(3), ir.C(4)))   // 0
	f.Out32(f.Sge(ir.C(4), ir.C(4)))   // 1
	f.Out32(f.Ugt(ir.C(5), ir.C(4)))   // 1

	// Memory width variants.
	f.OutW(ir.W16, f.LoadW(ir.W16, ir.C(g), 2)) // bytes 2..3 of the global
	f.StoreW(ir.W16, ir.C(g), ir.C(0xBEEF), 4)
	f.Out64(f.Load64(ir.C(g), 0))

	// Register-operand forms: the specialized tokens bind operand kinds
	// and widths at validation time.
	const x0, y0 = 0x0123456789abcdef, 0x1111111111111111
	x := f.Let(ir.C(x0))
	y := f.Let(ir.C(y0))
	f.Out64(f.BinW(ir.W64, ir.OpAdd, x, y))       // TokAdd64RR
	f.Out64(f.BinW(ir.W64, ir.OpAdd, x, ir.C(1))) // TokAdd64RI
	f.Out32(f.Add(x, y))                          // TokAdd32RR
	f.Out32(f.Add(x, ir.C(0xffffffff)))           // TokAdd32RI
	f.Out64(f.BinW(ir.W64, ir.OpXor, x, y))       // TokXor64RR
	f.Out32(f.Slt(x, y))                          // TokCmpSLT32RR: int32(0x89abcdef) < 0x11111111
	gr := f.Let(ir.C(g))
	f.Store64(gr, y, 8)                          // TokStoreRR
	f.Out64(f.Load64(gr, 8))                     // TokLoadR
	f.Out64(f.Bitcast(x))                        // TokMovR
	f.Out32(f.Sub(ir.C(3), ir.C(5)))             // -2
	f.Out32(f.Eq(ir.C(4), ir.C(4)))              // 1
	f.Out32(f.Ne(ir.C(4), ir.C(4)))              // 0
	f.Out32(f.Slt(ir.CI(-1), ir.C(0)))           // 1
	f.Out64(f.Select(ir.C(0), ir.C(7), ir.C(9))) // 9
	f.Out64(f.Fsqrt(ir.CF(2.25)))                // 1.5
	f.Out64(f.Call("sq", ir.C(12)))              // 144
	slot := f.Alloca(8)
	f.Store64(slot, ir.C(0xabcd), 0)
	f.Out64(f.Load64(slot, 0))
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(3), func(i ir.Reg) { f.Mov(acc, f.Add(acc, i)) })
	f.Out32(acc) // 0+1+2

	// Width variants of the generic tokens that mask or sign-extend by
	// width. The register operands carry garbage above the width.
	a8 := f.Let(ir.C(0x1F0))                  // low byte 0xF0 = -16
	a16 := f.Let(ir.C(0x3_8001))              // low half 0x8001 = -32767
	a64 := f.Let(ir.C(0x8000_0000_0000_0001)) // negative
	widthWants := []struct {
		name string
		v    ir.Reg
		want uint64
	}{
		{"shl.8", f.BinW(ir.W8, ir.OpShl, a8, ir.C(9)), 0xE0}, // count 9&7 = 1
		{"lshr.8", f.BinW(ir.W8, ir.OpLShr, a8, ir.C(4)), 0x0F},
		{"ashr.8", f.BinW(ir.W8, ir.OpAShr, a8, ir.C(4)), 0xFF},
		{"shl.16", f.BinW(ir.W16, ir.OpShl, a16, ir.C(17)), 0x0002}, // count 17&15 = 1
		{"lshr.16", f.BinW(ir.W16, ir.OpLShr, a16, ir.C(15)), 1},
		{"ashr.16", f.BinW(ir.W16, ir.OpAShr, a16, ir.C(1)), 0xC000},
		{"shl.64", f.BinW(ir.W64, ir.OpShl, a64, ir.C(65)), 2}, // count 65&63 = 1
		{"lshr.64", f.BinW(ir.W64, ir.OpLShr, a64, ir.C(63)), 1},
		{"ashr.64", f.BinW(ir.W64, ir.OpAShr, a64, ir.C(1)), 0xC000_0000_0000_0000},

		{"icmp.eq.8", f.CmpW(ir.W8, ir.OpICmpEQ, a8, ir.C(0xF0)), 1},
		{"icmp.ne.8", f.CmpW(ir.W8, ir.OpICmpNE, a8, ir.C(0xF0)), 0},
		{"icmp.ult.8", f.CmpW(ir.W8, ir.OpICmpULT, a8, ir.C(0xF1)), 1},
		{"icmp.ule.8", f.CmpW(ir.W8, ir.OpICmpULE, a8, ir.C(0xF0)), 1},
		{"icmp.slt.8", f.CmpW(ir.W8, ir.OpICmpSLT, a8, ir.C(1)), 1},
		{"icmp.sle.8", f.CmpW(ir.W8, ir.OpICmpSLE, ir.C(0x7F), a8), 0},
		{"icmp.ult.16", f.CmpW(ir.W16, ir.OpICmpULT, ir.C(0x7FFF), a16), 1},
		{"icmp.ule.16", f.CmpW(ir.W16, ir.OpICmpULE, a16, ir.C(0x8000)), 0},
		{"icmp.slt.16", f.CmpW(ir.W16, ir.OpICmpSLT, a16, ir.C(0x7FFF)), 1},
		{"icmp.sle.16", f.CmpW(ir.W16, ir.OpICmpSLE, a16, ir.C(0)), 1},
		{"icmp.ult.64", f.CmpW(ir.W64, ir.OpICmpULT, ir.C(1), a64), 1},
		{"icmp.ule.64", f.CmpW(ir.W64, ir.OpICmpULE, a64, ir.C(1)), 0},
		{"icmp.slt.64", f.CmpW(ir.W64, ir.OpICmpSLT, a64, ir.C(1)), 1},
		{"icmp.sle.64", f.CmpW(ir.W64, ir.OpICmpSLE, ir.C(0), a64), 0},

		{"sext.16", f.Sext(ir.W16, ir.C(0x1_8000)), 0xFFFF_FFFF_FFFF_8000},
		{"sext.32", f.Sext(ir.W32, ir.C(0x1_8000_0000)), 0xFFFF_FFFF_8000_0000},
		{"sext.64", f.Sext(ir.W64, a64), 0x8000_0000_0000_0001},
		{"sitofp.8", f.SiToFp(ir.W8, a8), math.Float64bits(-16)},
		{"sitofp.32", f.SiToFp(ir.W32, ir.C(0x1_FFFF_FFFE)), math.Float64bits(-2)},
		{"sitofp.64", f.SiToFp(ir.W64, ir.CI(-3)), math.Float64bits(-3)},
		{"fptosi.8", f.FpToSi(ir.W8, ir.CF(-3.9)), 0xFD},
		{"fptosi.8 saturate", f.FpToSi(ir.W8, ir.CF(-200.7)), 0x80},
		{"fptosi.16 saturate", f.FpToSi(ir.W16, ir.CF(40000)), 0x7FFF},
		{"fptosi.64", f.FpToSi(ir.W64, ir.CF(-2.5)), 0xFFFF_FFFF_FFFF_FFFE},
		{"fptosi.64 saturate", f.FpToSi(ir.W64, ir.CF(-1e300)), 0x8000_0000_0000_0000},

		{"udiv.8", f.BinW(ir.W8, ir.OpUDiv, ir.C(0x1F9), ir.C(2)), 0x7C},
		{"sdiv.8", f.BinW(ir.W8, ir.OpSDiv, ir.C(0x1F9), ir.C(2)), 0xFD},
		{"urem.8", f.BinW(ir.W8, ir.OpURem, ir.C(0x1F9), ir.C(2)), 1},
		{"srem.8", f.BinW(ir.W8, ir.OpSRem, ir.C(0x1F9), ir.C(2)), 0xFF},
		{"sdiv.16", f.BinW(ir.W16, ir.OpSDiv, ir.C(0xFFF9), ir.C(0x1_0002)), 0xFFFD},
		{"urem.16", f.BinW(ir.W16, ir.OpURem, ir.C(0xFFF9), ir.C(0x10)), 9},
		{"udiv.64", f.BinW(ir.W64, ir.OpUDiv, ir.CI(-7), ir.C(2)), 0x7FFF_FFFF_FFFF_FFFC},
		{"sdiv.64", f.BinW(ir.W64, ir.OpSDiv, ir.CI(-7), ir.C(2)), 0xFFFF_FFFF_FFFF_FFFD},
		{"urem.64", f.BinW(ir.W64, ir.OpURem, ir.CI(-7), ir.C(16)), 9},
		{"srem.64", f.BinW(ir.W64, ir.OpSRem, ir.CI(-7), ir.C(2)), 0xFFFF_FFFF_FFFF_FFFF},
	}
	for _, w := range widthWants {
		f.Out64(w.v)
	}

	f.RetVoid()
	p := mb.MustBuild()
	seen := make(map[ir.Token]bool)
	for _, fn := range p.Funcs {
		for _, in := range fn.Code {
			seen[in.Tok] = true
		}
	}
	for tok := ir.TokInvalid + 1; tok < ir.NumTokens; tok++ {
		if !seen[tok] && tok != ir.TokAbort { // an abort would end the run
			t.Errorf("token %d is not exercised", tok)
		}
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopReturned {
		t.Fatalf("stop = %v trap=%v", res.Stop, res.Trap)
	}
	stepped, err := Run(p, Options{CountRoles: true})
	if err != nil {
		t.Fatal(err)
	}
	// The comparison is loop against step: no instruction of the
	// straight run went through the observer tier, and every instruction
	// of the role-counting run did.
	if res.steps != 0 {
		t.Errorf("straight run stepped %d instructions, want 0", res.steps)
	}
	if stepped.steps != stepped.Dyn {
		t.Errorf("role-counting run stepped %d of %d instructions", stepped.steps, stepped.Dyn)
	}
	sameStepped(t, "sprint vs stepped", res, stepped)
	buf := res.Output
	pos := 0
	next8 := func() uint8 { v := buf[pos]; pos++; return v }
	next16 := func() uint16 { v := binary.LittleEndian.Uint16(buf[pos:]); pos += 2; return v }
	next32 := func() uint32 { v := binary.LittleEndian.Uint32(buf[pos:]); pos += 4; return v }
	next64 := func() uint64 { v := binary.LittleEndian.Uint64(buf[pos:]); pos += 8; return v }
	nextF := func() float64 { return math.Float64frombits(next64()) }

	if v := next8(); v != 4 {
		t.Errorf("add.i8 = %d", v)
	}
	if v := next16(); v != 24464 {
		t.Errorf("mul.i16 = %d", v)
	}
	wants32 := []uint32{3, 1, uint32(0xfffffffd), uint32(0xffffffff),
		0x30, 0xFF, 0xF0, 2, 1, uint32(0xffffffff)}
	for i, w := range wants32 {
		if v := next32(); v != w {
			t.Errorf("int op %d = %#x, want %#x", i, v, w)
		}
	}
	if v := next64(); v != ^uint64(0) {
		t.Errorf("sext = %#x", v)
	}
	if v := next64(); v != 0x34 {
		t.Errorf("trunc = %#x", v)
	}
	if v := next64(); v != 0xFFFF {
		t.Errorf("zext = %#x", v)
	}
	if v := next64(); v != math.Float64bits(1.0) {
		t.Errorf("bitcast = %#x", v)
	}
	if v := nextF(); v != -32768 {
		t.Errorf("sitofp = %v", v)
	}
	if v := next32(); v != 3 {
		t.Errorf("fptosi = %d", v)
	}
	if v := int32(next32()); v != math.MaxInt32 {
		t.Errorf("fptosi saturate = %d", v)
	}
	if v := next32(); v != 0 {
		t.Errorf("fptosi nan = %d", v)
	}
	if v := nextF(); v != 1.25 {
		t.Errorf("fsub = %v", v)
	}
	if v := nextF(); v != -2 {
		t.Errorf("fneg = %v", v)
	}
	if v := nextF(); v != 2.5 {
		t.Errorf("fabs = %v", v)
	}
	fcmpWants := []uint32{1, 1, 1, 1, 1, 0}
	for i, w := range fcmpWants {
		if v := next32(); v != w {
			t.Errorf("fcmp %d = %d, want %d", i, v, w)
		}
	}
	icmpWants := []uint32{1, 1, 0, 1, 1}
	for i, w := range icmpWants {
		if v := next32(); v != w {
			t.Errorf("icmp %d = %d, want %d", i, v, w)
		}
	}
	if v := next16(); v != 0x5566 {
		t.Errorf("load.i16 = %#x", v)
	}
	if v := next64(); v != 0x1122BEEF55667788 {
		t.Errorf("store.i16 readback = %#x", v)
	}
	regWants := []struct {
		name  string
		bytes int
		want  uint64
	}{
		{"add.64 rr", 8, x0 + y0},
		{"add.64 ri", 8, x0 + 1},
		{"add.32 rr", 4, (x0 + y0) & 0xffffffff},
		{"add.32 ri", 4, (x0 + 0xffffffff) & 0xffffffff},
		{"xor.64 rr", 8, x0 ^ y0},
		{"icmp.slt.32 rr", 4, 1},
		{"load rr-stored", 8, y0},
		{"mov r", 8, x0},
		{"sub", 4, 0xfffffffe},
		{"icmp.eq", 4, 1},
		{"icmp.ne", 4, 0},
		{"icmp.slt", 4, 1},
		{"select", 8, 9},
		{"fsqrt", 8, math.Float64bits(1.5)},
		{"call", 8, 144},
		{"alloca readback", 8, 0xabcd},
		{"loop", 4, 3},
	}
	for _, w := range regWants {
		var v uint64
		if w.bytes == 4 {
			v = uint64(next32())
		} else {
			v = next64()
		}
		if v != w.want {
			t.Errorf("%s = %#x, want %#x", w.name, v, w.want)
		}
	}
	for _, w := range widthWants {
		if v := next64(); v != w.want {
			t.Errorf("%s = %#x, want %#x", w.name, v, w.want)
		}
	}
	if pos != len(buf) {
		t.Errorf("consumed %d of %d output bytes", pos, len(buf))
	}
}
