package liveness

import (
	"testing"

	"multiflip/internal/ir"
)

// TestMaskedAndVacatesBits is the CRC32 pattern: only the bits an `and`
// immediate keeps are live through it.
func TestMaskedAndVacatesBits(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	v := f.BinW(ir.W64, ir.OpAdd, ir.C(5), ir.C(7)) // pc0
	w := f.BinW(ir.W64, ir.OpAnd, v, ir.C(1))       // pc1
	f.Out64(w)                                      // pc2
	f.RetVoid()                                     // pc3
	p := m.MustBuild()

	a := Analyze(p)
	if got := a.LiveIn(0, 1, v); got != 1 {
		t.Fatalf("liveIn(and pc)[v] = %#x, want 1", got)
	}
	// Write flip on v lands before the and reads it: bits 1..63 are dead.
	if got := a.DeadWriteBits(0, 0); got != ^uint64(1) {
		t.Fatalf("DeadWriteBits(add) = %#x, want %#x", got, ^uint64(1))
	}
	// Read flip on v at the and: same bits.
	if got := a.DeadReadBits(0, 1, 0); got != ^uint64(1) {
		t.Fatalf("DeadReadBits(and, slot 0) = %#x, want %#x", got, ^uint64(1))
	}
	// w feeds a 64-bit out: fully live.
	if got := a.DeadWriteBits(0, 1); got != 0 {
		t.Fatalf("DeadWriteBits(and dst) = %#x, want 0", got)
	}
	// The out's own read slot is fully live.
	if got := a.DeadReadBits(0, 2, 0); got != 0 {
		t.Fatalf("DeadReadBits(out) = %#x, want 0", got)
	}
}

// TestDeadTemporary: a value never observed downstream is fully dead, and
// does not keep its own operands alive.
func TestDeadTemporary(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	v := f.BinW(ir.W64, ir.OpAdd, ir.C(5), ir.C(7)) // pc0
	f.BinW(ir.W64, ir.OpXor, v, ir.C(3))            // pc1: dead temp reading v
	f.RetVoid()                                     // pc2
	p := m.MustBuild()

	a := Analyze(p)
	if got := a.DeadWriteBits(0, 1); got != ^uint64(0) {
		t.Fatalf("DeadWriteBits(dead xor) = %#x, want all-ones", got)
	}
	// v's only reader produces a dead value, so v is dead too.
	if got := a.DeadWriteBits(0, 0); got != ^uint64(0) {
		t.Fatalf("DeadWriteBits(v) = %#x, want all-ones", got)
	}
	if got := a.DeadReadBits(0, 1, 0); got != ^uint64(0) {
		t.Fatalf("DeadReadBits(dead xor, slot 0) = %#x, want all-ones", got)
	}
}

// TestNarrowStoreVacatesHighBits: a byte store observes only the low 8
// bits of the stored register.
func TestNarrowStoreVacatesHighBits(t *testing.T) {
	m := ir.NewModule("t")
	addr := m.GlobalZero(8)
	f := m.Func("main", 0)
	g := f.BinW(ir.W64, ir.OpAdd, ir.C(300), ir.C(1)) // pc0
	f.Store8(ir.C(addr), g, 0)                        // pc1 (addr imm: slot 0 = value)
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	if got, want := a.DeadWriteBits(0, 0), ^uint64(0xff); got != want {
		t.Fatalf("DeadWriteBits(g) = %#x, want %#x", got, want)
	}
	// Within the store's 8-bit value slot, every bit reaches memory.
	if got := a.DeadReadBits(0, 1, 0); got != 0 {
		t.Fatalf("DeadReadBits(store value) = %#x, want 0", got)
	}
}

// TestControlAndTrapSurfacesStayLive: branch conditions, addresses and
// divisors are never dead, even when the data result is.
func TestControlAndTrapSurfacesStayLive(t *testing.T) {
	m := ir.NewModule("t")
	addr := m.GlobalZero(16)
	f := m.Func("main", 0)
	v := f.Let(ir.C(9))                               // pc0
	cond := f.CmpW(ir.W64, ir.OpICmpSLT, v, ir.C(10)) // pc1
	exit := f.NewLabel()
	f.JmpIf(cond, exit) // pc2
	f.Out64(v)          // pc3
	f.Bind(exit)
	q := f.BinW(ir.W64, ir.OpUDiv, ir.C(7), v) // pc4: quotient dead, divisor not
	_ = q
	av := f.LoadW(ir.W64, v, int64(addr)) // pc5: v as address, result dead
	_ = av
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	// The condbr's condition slot (W1) has its single bit live.
	if got := a.DeadReadBits(0, 2, 0); got != 0 {
		t.Fatalf("DeadReadBits(condbr) = %#x, want 0", got)
	}
	// The divisor slot is fully live despite the dead quotient.
	if got := a.DeadReadBits(0, 4, 0); got != 0 {
		t.Fatalf("DeadReadBits(udiv divisor) = %#x, want 0", got)
	}
	// The load address slot is fully live despite the dead result.
	if got := a.DeadReadBits(0, 5, 0); got != 0 {
		t.Fatalf("DeadReadBits(load addr) = %#x, want 0", got)
	}
	// The dead quotient and dead load result themselves.
	if got := a.DeadWriteBits(0, 4); got != ^uint64(0) {
		t.Fatalf("DeadWriteBits(udiv) = %#x, want all-ones", got)
	}
	if got := a.DeadWriteBits(0, 5); got != ^uint64(0) {
		t.Fatalf("DeadWriteBits(load) = %#x, want all-ones", got)
	}
}

// TestJoinAcrossBranches: liveness joins over both branch arms, so a bit
// observed on either path stays live at the split.
func TestJoinAcrossBranches(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	v := f.Let(ir.C(5)) // pc0
	thenL, end := f.NewLabel(), f.NewLabel()
	f.JmpIf(ir.C(1), thenL)                      // pc1
	lo := f.BinW(ir.W64, ir.OpAnd, v, ir.C(0xf)) // pc2: else arm sees low nibble
	f.Out64(lo)
	f.Jmp(end)
	f.Bind(thenL)
	f.Out64(v) // then arm sees everything
	f.Bind(end)
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	// At the write of v (pc0) both arms are ahead: the then arm keeps all
	// 64 bits live.
	if got := a.DeadWriteBits(0, 0); got != 0 {
		t.Fatalf("DeadWriteBits(v) = %#x, want 0 (then arm reads all bits)", got)
	}
	// At the else arm's and, only the low nibble of v remains live (the
	// then arm is no longer reachable from there).
	if got, want := a.DeadReadBits(0, 2, 0), ^uint64(0xf); got != want {
		t.Fatalf("DeadReadBits(else and) = %#x, want %#x", got, want)
	}
}

// TestLoopBackedge: a register consumed by the next iteration stays live
// through the backedge.
func TestLoopBackedge(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	acc := f.NewReg()
	i := f.NewReg()
	f.Mov(acc, ir.C(0)) // pc0
	f.Mov(i, ir.C(0))   // pc1
	head, exit := f.NewLabel(), f.NewLabel()
	f.Bind(head)
	done := f.CmpW(ir.W64, ir.OpICmpSLE, ir.C(8), i) // pc2
	f.JmpIf(done, exit)                              // pc3
	f.Mov(acc, f.BinW(ir.W64, ir.OpAdd, acc, i))     // pc4 (add), pc5 (mov)
	f.Mov(i, f.BinW(ir.W64, ir.OpAdd, i, ir.C(1)))   // pc6 (add), pc7 (mov)
	f.Jmp(head)                                      // pc8
	f.Bind(exit)
	f.Out64(acc) // pc9
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	// acc is live at the loop head: consumed by the body's add and by the
	// out after the exit.
	if got := a.LiveIn(0, 2, acc); got != ^uint64(0) {
		t.Fatalf("liveIn(head)[acc] = %#x, want all-ones", got)
	}
	// i is live at the head too (the comparison reads it).
	if got := a.LiveIn(0, 2, i); got == 0 {
		t.Fatalf("liveIn(head)[i] = 0, want live")
	}
}

// TestCallBoundaries: arguments are fully live at the call, the returned
// value's liveness flows from the caller's continuation, and a ret
// operand is fully live in the callee.
func TestCallBoundaries(t *testing.T) {
	m := ir.NewModule("t")
	g := m.Func("g", 1)
	r := g.BinW(ir.W64, ir.OpAdd, g.Arg(0), ir.C(1)) // g pc0
	g.Ret(r)                                         // g pc1

	f := m.Func("main", 0)
	x := f.Let(ir.C(41))                       // main pc0
	y := f.Call("g", x)                        // main pc1
	lo := f.BinW(ir.W64, ir.OpAnd, y, ir.C(1)) // main pc2
	f.Out64(lo)                                // main pc3
	f.RetVoid()
	p := m.MustBuild()

	mainFn := p.FuncByName("main")
	gFn := p.FuncByName("g")
	a := Analyze(p)
	// The call argument is fully live (the callee observes all 64 bits).
	if got := a.DeadReadBits(mainFn, 1, 0); got != 0 {
		t.Fatalf("DeadReadBits(call arg) = %#x, want 0", got)
	}
	// The call result is observed only through `and 1`: bits 1..63 dead.
	// The VM injects call-result writes at the matching return with full
	// 64-bit width.
	if got, want := a.DeadWriteBits(mainFn, 1), ^uint64(1); got != want {
		t.Fatalf("DeadWriteBits(call) = %#x, want %#x", got, want)
	}
	// Inside g, the ret operand is fully live (it escapes to the caller).
	if got := a.DeadReadBits(gFn, 1, 0); got != 0 {
		t.Fatalf("DeadReadBits(ret operand) = %#x, want 0", got)
	}
}

// TestSextSignBit: a sign extension keeps the source's sign bit live
// whenever any extended bit is observed.
func TestSextSignBit(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	v := f.BinW(ir.W64, ir.OpAdd, ir.C(5), ir.C(2)) // pc0
	s := f.Sext(ir.W8, v)                           // pc1
	hi := f.BinW(ir.W64, ir.OpLShr, s, ir.C(32))    // pc2: observe only high bits
	f.Out64(hi)                                     // pc3
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	// Only the sign bit (bit 7) of the sext source is live: the observed
	// bits are all copies of it.
	if got, want := a.DeadWriteBits(0, 0), ^uint64(0x80); got != want {
		t.Fatalf("DeadWriteBits(v) = %#x, want %#x", got, want)
	}
}

// TestShiftVacation: constant shifts relocate liveness exactly.
func TestShiftVacation(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	v := f.BinW(ir.W64, ir.OpAdd, ir.C(5), ir.C(2)) // pc0
	h := f.BinW(ir.W64, ir.OpLShr, v, ir.C(60))     // pc1: top nibble
	f.Out64(h)                                      // pc2
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	// Only bits 60..63 of v survive the shift.
	if got, want := a.DeadWriteBits(0, 0), ^(uint64(0xf) << 60); got != want {
		t.Fatalf("DeadWriteBits(v) = %#x, want %#x", got, want)
	}
}

// TestStats: the dead-bit densities add up over a function with known
// dead candidates.
func TestStats(t *testing.T) {
	m := ir.NewModule("t")
	f := m.Func("main", 0)
	v := f.BinW(ir.W64, ir.OpAdd, ir.C(5), ir.C(7)) // 64 write bits, 63 dead
	w := f.BinW(ir.W64, ir.OpAnd, v, ir.C(1))       // read slot: 64 bits, 63 dead; write: 64 bits, 0 dead
	f.Out64(w)                                      // read slot: 64 bits, 0 dead
	f.RetVoid()
	p := m.MustBuild()

	a := Analyze(p)
	st := a.Stats(p)
	if len(st) != 1 {
		t.Fatalf("got %d func stats, want 1", len(st))
	}
	s := st[0]
	if s.ReadBits != 128 || s.DeadRead != 63 {
		t.Fatalf("read bits %d/%d, want 63/128 dead", s.DeadRead, s.ReadBits)
	}
	if s.WriteBits != 128 || s.DeadWrite != 63 {
		t.Fatalf("write bits %d/%d, want 63/128 dead", s.DeadWrite, s.WriteBits)
	}
	if d := s.Density(); d <= 0.4 || d >= 0.6 {
		t.Fatalf("density %v, want ~0.49", d)
	}
	ps := a.ProgStat(p)
	if ps.ReadBits != s.ReadBits || ps.DeadWrite != s.DeadWrite {
		t.Fatalf("ProgStat %+v does not match single-func stats %+v", ps, s)
	}
}
