package vm

import (
	"fmt"
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
)

// TestDispatchTokensAssigned checks the validation-time dispatch
// metadata over every benchmark program: all instructions carry a real
// token, the destination-write cache matches the instruction shape, and
// superinstruction annotations obey the fusion legality rules (only
// straight-line heads, no call/ret tails, never on a function's last
// instruction).
func TestDispatchTokensAssigned(t *testing.T) {
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		for _, f := range p.Funcs {
			for pc := range f.Code {
				in := &f.Code[pc]
				if in.Tok == ir.TokInvalid {
					t.Fatalf("%s %s pc %d: %s has no dispatch token", bench.Name, f.Name, pc, in.Op)
				}
				wantDW := uint8(0)
				if in.Dst != ir.NoReg && in.Op != ir.OpCall {
					wantDW = 1
				}
				if in.DW != wantDW {
					t.Fatalf("%s %s pc %d: %s DW=%d, want %d", bench.Name, f.Name, pc, in.Op, in.DW, wantDW)
				}
				if in.FTok == ir.FuseNone {
					continue
				}
				if pc+1 >= len(f.Code) {
					t.Fatalf("%s %s pc %d: fusion annotation on the last instruction", bench.Name, f.Name, pc)
				}
				switch in.Op {
				case ir.OpBr, ir.OpCondBr, ir.OpCall, ir.OpRet, ir.OpAbort:
					t.Fatalf("%s %s pc %d: %s cannot head a superinstruction", bench.Name, f.Name, pc, in.Op)
				}
				switch tail := f.Code[pc+1].Op; tail {
				case ir.OpCall, ir.OpRet:
					t.Fatalf("%s %s pc %d: %s cannot close a superinstruction", bench.Name, f.Name, pc, tail)
				}
			}
		}
	}
}

// TestFusionDifferentialWorkloads proves the dispatch invariant on every
// workload: a run with superinstruction fusion disabled is bit-identical
// to the fused run — same stop, output, and dynamic/candidate counters.
func TestFusionDifferentialWorkloads(t *testing.T) {
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		fused, err := Run(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		unfused, err := Run(p, Options{Disable: TierFuse})
		if err != nil {
			t.Fatalf("%s (nofuse): %v", bench.Name, err)
		}
		sameResult(t, bench.Name+": unfused vs fused", unfused, fused)
	}
}

// TestFuseShlAndAnnotated pins the FuseShlAnd promotion: FFT's
// bit-reversal loop must carry executed shl+and superinstructions (not
// the annotation-only FusePair it carried before the promotion).
func TestFuseShlAndAnnotated(t *testing.T) {
	bench, err := prog.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, f := range p.Funcs {
		for pc := range f.Code {
			if f.Code[pc].FTok == ir.FuseShlAnd {
				count++
				if f.Code[pc].Op != ir.OpShl || f.Code[pc+1].Op != ir.OpAnd {
					t.Fatalf("FuseShlAnd on a %s+%s pair", f.Code[pc].Op, f.Code[pc+1].Op)
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("FFT carries no FuseShlAnd superinstruction")
	}
}

// TestFuseShlAndDifferential exercises the shl+and superinstruction in
// both shapes — the and depending on the shift's destination, and the
// independent adjacent pair FFT's bit-reversal uses — against unfused
// dispatch, across mixed widths.
func TestFuseShlAndDifferential(t *testing.T) {
	mb := ir.NewModule("shl-and")
	g := mb.GlobalU64s([]uint64{0xfedcba9876543210})
	f := mb.Func("main", 0)
	v := f.Load64(ir.C(g), 0)
	f.For(ir.C(0), ir.C(64), func(i ir.Reg) {
		// Dependent: and reads the shift's destination.
		s := f.BinW(ir.W64, ir.OpShl, v, i)
		m := f.BinW(ir.W64, ir.OpAnd, s, ir.C(0xff00ff00ff00ff00))
		// Independent: adjacent shl+and with disjoint operands (the FFT
		// idiom), at a different width.
		s2 := f.Shl(v, ir.C(1))
		m2 := f.And(v, ir.C(1))
		f.Out64(m)
		f.Out32(f.Add(s2, m2))
	})
	f.RetVoid()
	p := mb.MustBuild()

	shlAnds := 0
	for _, fn := range p.Funcs {
		for pc := range fn.Code {
			if fn.Code[pc].FTok == ir.FuseShlAnd {
				shlAnds++
			}
		}
	}
	if shlAnds < 2 {
		t.Fatalf("expected both shl+and shapes annotated, got %d", shlAnds)
	}
	fused, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := Run(p, Options{Disable: TierFuse})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "shl+and unfused vs fused", unfused, fused)
}

// TestFusionCheckpointDifferential pins the interaction of fusion with
// golden-run checkpointing: fused and unfused checkpointing runs place
// snapshots at identical dynamic indices (the event horizon forces pairs
// straddling a checkpoint to execute unfused), and a snapshot captured by
// either variant resumes bit-identically under the other — including
// resume points that land in the middle of an annotated pair.
func TestFusionCheckpointDifferential(t *testing.T) {
	for _, name := range []string{"qsort", "CRC32", "FFT"} {
		bench, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bench.Build()
		if err != nil {
			t.Fatal(err)
		}
		straight, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, interval := range []uint64{37, 256} {
			t.Run(fmt.Sprintf("%s/k=%d", name, interval), func(t *testing.T) {
				fused, err := Run(p, Options{Checkpoint: interval})
				if err != nil {
					t.Fatal(err)
				}
				unfused, err := Run(p, Options{Checkpoint: interval, Disable: TierFuse})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "unfused checkpointing run", unfused, fused)
				if len(fused.Snapshots) != len(unfused.Snapshots) {
					t.Fatalf("snapshot counts diverge: fused %d, unfused %d",
						len(fused.Snapshots), len(unfused.Snapshots))
				}
				for i := range fused.Snapshots {
					if fused.Snapshots[i].Dyn != unfused.Snapshots[i].Dyn {
						t.Fatalf("snapshot %d at dyn %d (fused) vs %d (unfused)",
							i, fused.Snapshots[i].Dyn, unfused.Snapshots[i].Dyn)
					}
				}
				// Cross-resume: unfused snapshots may sit between the halves
				// of an annotated pair; resuming with fusion enabled must
				// simply execute the stranded half alone.
				for _, idx := range []int{0, len(unfused.Snapshots) / 2, len(unfused.Snapshots) - 1} {
					res, err := Run(p, Options{Resume: unfused.Snapshots[idx]})
					if err != nil {
						t.Fatalf("fused resume from unfused snapshot %d: %v", idx, err)
					}
					sameResult(t, fmt.Sprintf("fused resume from unfused dyn=%d",
						unfused.Snapshots[idx].Dyn), res, straight)
					res, err = Run(p, Options{Resume: fused.Snapshots[idx], Disable: TierFuse})
					if err != nil {
						t.Fatalf("unfused resume from fused snapshot %d: %v", idx, err)
					}
					sameResult(t, fmt.Sprintf("unfused resume from fused dyn=%d",
						fused.Snapshots[idx].Dyn), res, straight)
				}
			})
		}
	}
}

// TestFuseAndLshrAnnotated pins the FuseAndLshr promotion: CRC32's
// table-derivation loop (lsb = c&1 ahead of c>>1) must carry executed
// and+lshr superinstructions (not the annotation-only FusePair it
// carried before the promotion).
func TestFuseAndLshrAnnotated(t *testing.T) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, f := range p.Funcs {
		for pc := range f.Code {
			if f.Code[pc].FTok == ir.FuseAndLshr {
				count++
				if f.Code[pc].Op != ir.OpAnd || f.Code[pc+1].Op != ir.OpLShr {
					t.Fatalf("FuseAndLshr on a %s+%s pair", f.Code[pc].Op, f.Code[pc+1].Op)
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("CRC32 carries no FuseAndLshr superinstruction")
	}
}

// TestFuseAndLshrDifferential exercises the and+lshr superinstruction in
// both shapes — the shift depending on the and's destination, and the
// independent adjacent pair CRC32's table loop uses — against unfused
// dispatch, across mixed widths.
func TestFuseAndLshrDifferential(t *testing.T) {
	mb := ir.NewModule("and-lshr")
	g := mb.GlobalU64s([]uint64{0xfedcba9876543210})
	f := mb.Func("main", 0)
	v := f.Load64(ir.C(g), 0)
	f.For(ir.C(0), ir.C(64), func(i ir.Reg) {
		// Dependent: the shift reads the and's destination.
		m := f.BinW(ir.W64, ir.OpAnd, v, ir.C(0xff00ff00ff00ff00))
		s := f.BinW(ir.W64, ir.OpLShr, m, i)
		// Independent: adjacent and+lshr with disjoint operands (the
		// CRC32 idiom), at a different width.
		m2 := f.And(v, ir.C(1))
		s2 := f.Lshr(v, ir.C(1))
		f.Out64(s)
		f.Out32(f.Add(m2, s2))
	})
	f.RetVoid()
	p := mb.MustBuild()

	andLshrs := 0
	for _, fn := range p.Funcs {
		for pc := range fn.Code {
			if fn.Code[pc].FTok == ir.FuseAndLshr {
				andLshrs++
			}
		}
	}
	if andLshrs < 2 {
		t.Fatalf("expected both and+lshr shapes annotated, got %d", andLshrs)
	}
	fused, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := Run(p, Options{Disable: TierFuse})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "and+lshr unfused vs fused", unfused, fused)
}

// TestFuseCmpCmpBrAnnotated pins the three-wide loop-head promotion: the
// builder's While loops expand to cmp; cmp-eq-0; condbr chains, so real
// workloads must carry FuseCmpCmpBr annotations, each on a well-formed
// chain whose branch reads the second compare's destination.
func TestFuseCmpCmpBrAnnotated(t *testing.T) {
	count := 0
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		for _, f := range p.Funcs {
			for pc := range f.Code {
				if f.Code[pc].FTok != ir.FuseCmpCmpBr {
					continue
				}
				count++
				if pc+2 >= len(f.Code) {
					t.Fatalf("%s %s pc %d: FuseCmpCmpBr without two successors", bench.Name, f.Name, pc)
				}
				in2, in3 := &f.Code[pc+1], &f.Code[pc+2]
				if in3.Op != ir.OpCondBr {
					t.Fatalf("%s %s pc %d: FuseCmpCmpBr chain ends in %s", bench.Name, f.Name, pc, in3.Op)
				}
				if !in3.A.IsReg() || in3.A.Reg() != in2.Dst {
					t.Fatalf("%s %s pc %d: branch does not read the second compare's destination", bench.Name, f.Name, pc)
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("no workload carries a FuseCmpCmpBr superinstruction")
	}
}

// TestFuseCmpCmpBrDifferential exercises the cmp+cmp+condbr
// superinstruction against unfused dispatch: While loops (the JmpIfNot
// expansion the promotion targets) over signed and unsigned compares at
// mixed widths, with loop bodies that observe both compare destinations
// so a miscounted write or a wrong branch shows in the output.
func TestFuseCmpCmpBrDifferential(t *testing.T) {
	mb := ir.NewModule("cmp-cmp-br")
	f := mb.Func("main", 0)
	i := f.Let(ir.C(0))
	f.While(func() ir.Src { return f.Slt(i, ir.C(37)) }, func() {
		f.Out32(i)
		f.Mov(i, f.Add(i, ir.C(1)))
	})
	j := f.Let(ir.C(100))
	f.While(func() ir.Src { return f.Ugt(j, ir.C(3)) }, func() {
		f.Out32(j)
		f.Mov(j, f.Sub(j, ir.C(7)))
	})
	// A 64-bit chain: cmp feeding cmp feeding the branch.
	k := f.Let(ir.C(0))
	f.While(func() ir.Src {
		lt := f.CmpW(ir.W64, ir.OpICmpULT, k, ir.C(19))
		return f.CmpW(ir.W64, ir.OpICmpNE, lt, ir.C(0))
	}, func() {
		f.Out64(k)
		f.Mov(k, f.BinW(ir.W64, ir.OpAdd, k, ir.C(3)))
	})
	f.RetVoid()
	p := mb.MustBuild()

	chains := 0
	for _, fn := range p.Funcs {
		for pc := range fn.Code {
			if fn.Code[pc].FTok == ir.FuseCmpCmpBr {
				chains++
			}
		}
	}
	if chains < 3 {
		t.Fatalf("expected every loop head annotated, got %d chains", chains)
	}
	fused, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := Run(p, Options{Disable: TierFuse})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cmp+cmp+br unfused vs fused", unfused, fused)
}
