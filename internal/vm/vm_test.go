package vm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"multiflip/internal/ir"
)

// buildAndRun builds a single-function program via fn and runs it.
func buildAndRun(t *testing.T, fn func(mb *ir.ModuleBuilder, f *ir.FuncBuilder)) *Result {
	t.Helper()
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	fn(mb, f)
	p, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func out32(vals ...uint32) []byte {
	var buf bytes.Buffer
	for _, v := range vals {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	return buf.Bytes()
}

func TestArithmetic(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		f.Out32(f.Add(ir.C(40), ir.C(2)))
		f.Out32(f.Sub(ir.C(1), ir.C(2))) // -1 => 0xffffffff
		f.Out32(f.Mul(ir.C(7), ir.C(6)))
		f.Out32(f.Udiv(ir.C(100), ir.C(7)))   // 14
		f.Out32(f.Sdiv(ir.CI(-100), ir.C(7))) // -14
		f.Out32(f.Srem(ir.CI(-100), ir.C(7))) // -2
		f.Out32(f.Shl(ir.C(1), ir.C(5)))      // 32
		f.Out32(f.Ashr(ir.CI(-8), ir.C(1)))   // -4
		f.Out32(f.Lshr(ir.CI(-8), ir.C(1)))   // 0x7ffffffc
		f.RetVoid()
	})
	want := out32(42, 0xffffffff, 42, 14, uint32(0xfffffff2), uint32(0xfffffffe),
		32, uint32(0xfffffffc), 0x7ffffffc)
	if res.Stop != StopReturned {
		t.Fatalf("stop = %v", res.Stop)
	}
	if !bytes.Equal(res.Output, want) {
		t.Fatalf("output = %x, want %x", res.Output, want)
	}
}

func TestComparisonsAndSelect(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		f.Out32(f.Slt(ir.CI(-1), ir.C(1)))             // 1 (signed)
		f.Out32(f.Ult(ir.CI(-1), ir.C(1)))             // 0 (unsigned: 0xffffffff > 1)
		f.Out32(f.Eq(ir.C(5), ir.C(5)))                // 1
		f.Out32(f.Select(ir.C(1), ir.C(10), ir.C(20))) // 10
		f.Out32(f.Select(ir.C(0), ir.C(10), ir.C(20))) // 20
		f.RetVoid()
	})
	want := out32(1, 0, 1, 10, 20)
	if !bytes.Equal(res.Output, want) {
		t.Fatalf("output = %x, want %x", res.Output, want)
	}
}

func TestFloatOps(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		s := f.Fadd(ir.CF(1.5), ir.CF(2.25))
		f.Out64(s)                              // 3.75
		f.Out64(f.Fsqrt(ir.CF(9.0)))            // 3
		f.Out64(f.Fdiv(ir.CF(1.0), ir.CF(0.0))) // +Inf, no trap
		f.Out32(f.FpToSi(ir.W32, ir.CF(-2.9)))  // -2 (truncation)
		f.Out64(f.SiToFp(ir.W32, ir.CI(-3)))    // -3.0
		f.RetVoid()
	})
	if res.Stop != StopReturned {
		t.Fatalf("stop = %v trap=%v", res.Stop, res.Trap)
	}
	buf := res.Output
	if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])); got != 3.75 {
		t.Errorf("fadd = %v", got)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])); got != 3 {
		t.Errorf("fsqrt = %v", got)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])); !math.IsInf(got, 1) {
		t.Errorf("fdiv by zero = %v, want +Inf", got)
	}
	if got := int32(binary.LittleEndian.Uint32(buf[24:])); got != -2 {
		t.Errorf("fptosi = %d", got)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[28:])); got != -3 {
		t.Errorf("sitofp = %v", got)
	}
}

func TestGlobalsAndMemory(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		g := mb.GlobalU32s([]uint32{11, 22, 33})
		sum := f.Let(ir.C(0))
		f.For(ir.C(0), ir.C(3), func(i ir.Reg) {
			f.Mov(sum, f.Add(sum, f.Load32(f.Idx(ir.C(g), i, 4), 0)))
		})
		f.Out32(sum)
		f.RetVoid()
	})
	if !bytes.Equal(res.Output, out32(66)) {
		t.Fatalf("output = %x", res.Output)
	}
}

func TestAllocaStack(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		buf := f.Alloca(64)
		f.For(ir.C(0), ir.C(8), func(i ir.Reg) {
			f.Store64(f.Idx(buf, i, 8), i, 0)
		})
		sum := f.Let(ir.C(0))
		f.For(ir.C(0), ir.C(8), func(i ir.Reg) {
			f.Mov(sum, f.Add(sum, f.Load64(f.Idx(buf, i, 8), 0)))
		})
		f.Out32(sum) // 0+1+...+7 = 28
		f.RetVoid()
	})
	if !bytes.Equal(res.Output, out32(28)) {
		t.Fatalf("output = %x", res.Output)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	mb := ir.NewModule("fib")
	main := mb.Func("main", 0)
	main.Out32(main.Call("fib", ir.C(10)))
	main.RetVoid()
	fib := mb.Func("fib", 1)
	n := fib.Arg(0)
	fib.If(fib.Slt(n, ir.C(2)), func() { fib.Ret(n) })
	a := fib.Call("fib", fib.Sub(n, ir.C(1)))
	b := fib.Call("fib", fib.Sub(n, ir.C(2)))
	fib.Ret(fib.Add(a, b))
	p := mb.MustBuild()
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, out32(55)) {
		t.Fatalf("fib(10) output = %x", res.Output)
	}
}

func TestTrapDivZero(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		z := f.Let(ir.C(0))
		f.Out32(f.Udiv(ir.C(1), z))
		f.RetVoid()
	})
	if res.Stop != StopTrap || res.Trap != TrapArithmetic {
		t.Fatalf("stop=%v trap=%v, want arithmetic trap", res.Stop, res.Trap)
	}
}

func TestTrapSDivOverflow(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		f.Out32(f.Sdiv(ir.C(0x80000000), ir.CI(-1)))
		f.RetVoid()
	})
	if res.Trap != TrapArithmetic {
		t.Fatalf("trap = %v, want arithmetic", res.Trap)
	}
}

func TestTrapSegfault(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		f.Out32(f.Load32(ir.C(0x10), 0)) // null-ish pointer
		f.RetVoid()
	})
	if res.Stop != StopTrap || res.Trap != TrapSegfault {
		t.Fatalf("stop=%v trap=%v, want segfault", res.Stop, res.Trap)
	}
}

func TestTrapSegfaultPastGlobals(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		g := mb.GlobalU32s([]uint32{1})
		f.Out32(f.Load32(ir.C(g+4096), 0))
		f.RetVoid()
	})
	if res.Trap != TrapSegfault {
		t.Fatalf("trap = %v, want segfault", res.Trap)
	}
}

// TestTrapSegfaultTopOfAddressSpace: an access in the top size bytes of
// the address space, where addr+size wraps to a small number, maps to no
// segment. Loads and stores of each width, aligned and (with the trap
// off) unaligned.
func TestTrapSegfaultTopOfAddressSpace(t *testing.T) {
	for _, w := range []ir.Width{ir.W8, ir.W16, ir.W32, ir.W64} {
		size := uint64(w.Bytes())
		for addr := -size; addr != 0; addr++ {
			for _, noAlign := range []bool{false, true} {
				if addr != -size && !noAlign {
					continue // misaligned: TestTrapMisaligned's trap
				}
				for _, store := range []bool{false, true} {
					mb := ir.NewModule("t")
					f := mb.Func("main", 0)
					mb.GlobalU64s([]uint64{1, 2})
					f.Alloca(16)
					if store {
						f.StoreW(w, ir.C(addr), ir.C(1), 0)
					} else {
						f.OutW(w, f.LoadW(w, ir.C(addr), 0))
					}
					f.RetVoid()
					res, err := Run(mb.MustBuild(), Options{NoAlignTrap: noAlign})
					if err != nil {
						t.Fatal(err)
					}
					if res.Stop != StopTrap || res.Trap != TrapSegfault {
						t.Errorf("%s store=%v at %#x (noAlign=%v): stop=%v trap=%v, want segfault",
							w, store, addr, noAlign, res.Stop, res.Trap)
					}
				}
			}
		}
	}
}

func TestTrapMisaligned(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		g := mb.GlobalU32s([]uint32{1, 2})
		f.Out32(f.Load32(ir.C(g+1), 0))
		f.RetVoid()
	})
	if res.Trap != TrapMisaligned {
		t.Fatalf("trap = %v, want misaligned", res.Trap)
	}
}

func TestTrapStackOverflowRecursion(t *testing.T) {
	mb := ir.NewModule("t")
	main := mb.Func("main", 0)
	main.CallVoid("rec", ir.C(0))
	main.RetVoid()
	rec := mb.Func("rec", 1)
	rec.CallVoid("rec", rec.Arg(0))
	rec.RetVoid()
	res, err := Run(mb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != TrapStackOverflow {
		t.Fatalf("trap = %v, want stack overflow", res.Trap)
	}
}

func TestTrapStackOverflowAlloca(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		f.For(ir.C(0), ir.C(100000), func(i ir.Reg) {
			f.Alloca(1 << 16)
		})
		f.RetVoid()
	})
	if res.Trap != TrapStackOverflow {
		t.Fatalf("trap = %v, want stack overflow", res.Trap)
	}
}

func TestTrapAbort(t *testing.T) {
	res := buildAndRun(t, func(mb *ir.ModuleBuilder, f *ir.FuncBuilder) {
		f.Abort()
	})
	if res.Trap != TrapAbort {
		t.Fatalf("trap = %v, want abort", res.Trap)
	}
}

func TestHangBudget(t *testing.T) {
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	l := f.NewLabel()
	f.Bind(l)
	f.Jmp(l)
	res, err := Run(mb.MustBuild(), Options{MaxDyn: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopHang {
		t.Fatalf("stop = %v, want hang", res.Stop)
	}
	if res.Dyn != 1000 {
		t.Fatalf("dyn = %d, want 1000", res.Dyn)
	}
}

func TestOutputLimit(t *testing.T) {
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	l := f.NewLabel()
	f.Bind(l)
	f.Out32(ir.C(1))
	f.Jmp(l)
	res, err := Run(mb.MustBuild(), Options{MaxOutput: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopOutputLimit {
		t.Fatalf("stop = %v, want output-limit", res.Stop)
	}
}

func TestStackFreedOnReturn(t *testing.T) {
	// Alloca space must be released at return so deep call sequences
	// don't exhaust the stack.
	mb := ir.NewModule("t")
	main := mb.Func("main", 0)
	main.For(ir.C(0), ir.C(10000), func(i ir.Reg) {
		main.CallVoid("user", i)
	})
	main.Out32(ir.C(7))
	main.RetVoid()
	user := mb.Func("user", 1)
	buf := user.Alloca(512)
	user.Store32(buf, user.Arg(0), 0)
	user.RetVoid()
	res, err := Run(mb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopReturned {
		t.Fatalf("stop=%v trap=%v, want clean return", res.Stop, res.Trap)
	}
}

func TestStaleStackUnmappedAfterReturn(t *testing.T) {
	// An address into a popped frame is unmapped (fresh sp=0 at main scope
	// if main made no allocas) — accessing it faults.
	mb := ir.NewModule("t")
	main := mb.Func("main", 0)
	addr := main.Call("leak")
	main.Out32(main.Load32(addr, 0)) // dangling stack address
	main.RetVoid()
	leak := mb.Func("leak", 0)
	b := leak.Alloca(16)
	leak.Store32(b, ir.C(42), 0)
	leak.Ret(b)
	res, err := Run(mb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != TrapSegfault {
		t.Fatalf("trap = %v, want segfault on dangling stack address", res.Trap)
	}
}

func TestProfileCounts(t *testing.T) {
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	x := f.Let(ir.C(1)) // mov imm: 0 reads, 1 write
	y := f.Add(x, x)    // 2 reads, 1 write
	f.Out32(y)          // 1 read, 0 writes
	f.RetVoid()         // 0 reads
	p := mb.MustBuild()
	res, err := Profile(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dyn != 4 {
		t.Errorf("dyn = %d, want 4", res.Dyn)
	}
	if res.ReadSlots != 3 {
		t.Errorf("readSlots = %d, want 3", res.ReadSlots)
	}
	if res.Writes != 2 {
		t.Errorf("writes = %d, want 2", res.Writes)
	}
}

func TestProfileRejectsTrappingProgram(t *testing.T) {
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	f.Abort()
	if _, err := Profile(mb.MustBuild()); err == nil {
		t.Fatal("expected error profiling a trapping program")
	}
}

func TestDeterministicRuns(t *testing.T) {
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	g := mb.GlobalZero(256)
	f.For(ir.C(0), ir.C(64), func(i ir.Reg) {
		f.Store32(f.Idx(ir.C(g), i, 4), f.Mul(i, i), 0)
	})
	sum := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(64), func(i ir.Reg) {
		f.Mov(sum, f.Add(sum, f.Load32(f.Idx(ir.C(g), i, 4), 0)))
	})
	f.Out32(sum)
	f.RetVoid()
	p := mb.MustBuild()
	a, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Output, b.Output) || a.Dyn != b.Dyn ||
		a.ReadSlots != b.ReadSlots || a.Writes != b.Writes {
		t.Fatal("identical runs produced different observables")
	}
}

func TestGlobalsNotSharedAcrossRuns(t *testing.T) {
	// A run mutating globals must not leak into the next run.
	mb := ir.NewModule("t")
	f := mb.Func("main", 0)
	g := mb.GlobalU32s([]uint32{1})
	v := f.Load32(ir.C(g), 0)
	f.Store32(ir.C(g), f.Add(v, ir.C(1)), 0)
	f.Out32(v)
	f.RetVoid()
	p := mb.MustBuild()
	a, _ := Run(p, Options{})
	b, _ := Run(p, Options{})
	if !bytes.Equal(a.Output, b.Output) {
		t.Fatal("global mutation leaked across runs")
	}
}

// memFlipProg runs a loop long enough for memory flips at small AtDyns
// to land, then emits both of its two global words.
func memFlipProg() *ir.Program {
	mb := ir.NewModule("memflip")
	f := mb.Func("main", 0)
	g := mb.GlobalU64s([]uint64{1, 2})
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(100), func(i ir.Reg) {
		f.Mov(acc, f.BinW(ir.W64, ir.OpAdd, acc, i))
	})
	f.Out64(f.Load64(ir.C(g), 0))
	f.Out64(f.Load64(ir.C(g), 8))
	f.Out64(acc)
	f.RetVoid()
	return mb.MustBuild()
}

// TestMemFlipOutsideGlobalsSkipped: a flip whose word does not fit in
// the globals, including one in the top 8 bytes of the address space
// where Word+8 wraps, corrupts nothing; the last whole word is flipped.
func TestMemFlipOutsideGlobalsSkipped(t *testing.T) {
	p := memFlipProg()
	n := uint64(len(p.Globals))
	for _, word := range []uint64{1<<64 - 8, 1<<64 - 1, n - 7, n, n - 8} {
		res, err := Run(p, Options{MemFlips: []MemFlip{{AtDyn: 1, Word: word, Mask: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if word == n-8 {
			want = 1
		}
		if res.Stop != StopReturned || res.Injected != want {
			t.Errorf("word %#x: stop=%s injected=%d, want returned/%d", word, res.Stop, res.Injected, want)
		}
	}
}

// TestMemFlipsMustBeSorted: Run rejects memory flips out of AtDyn order,
// which would otherwise all land at the first one's instant, and runs
// flips that share an AtDyn.
func TestMemFlipsMustBeSorted(t *testing.T) {
	p := memFlipProg()
	_, err := Run(p, Options{MemFlips: []MemFlip{{AtDyn: 100, Word: 0, Mask: 1}, {AtDyn: 50, Word: 8, Mask: 1}}})
	if err == nil || !strings.Contains(err.Error(), "MemFlips[1]") || !strings.Contains(err.Error(), "MemFlips[0]") {
		t.Fatalf("unsorted flips: err = %v, want one naming MemFlips[1] and MemFlips[0]", err)
	}
	res, err := Run(p, Options{MemFlips: []MemFlip{{AtDyn: 100, Word: 0, Mask: 1}, {AtDyn: 100, Word: 8, Mask: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 2 || !slices.Equal(res.InjectionDyns, []uint64{100, 100}) {
		t.Errorf("equal AtDyns: injected=%d at %v, want 2 at [100 100]", res.Injected, res.InjectionDyns)
	}
}
