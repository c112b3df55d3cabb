package vm

import (
	"fmt"
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/xrand"
)

// fuzzSrc doles out decision bytes from the fuzz input; exhausted input
// yields zeroes, so every prefix decodes to some program.
type fuzzSrc struct {
	data []byte
	i    int
}

func (z *fuzzSrc) next() byte {
	if z.i >= len(z.data) {
		return 0
	}
	b := z.data[z.i]
	z.i++
	return b
}

// n returns a value in [0, bound).
func (z *fuzzSrc) n(bound int) int { return int(z.next()) % bound }

func (z *fuzzSrc) u64() uint64 {
	v := uint64(0)
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(z.next())
	}
	return v
}

// emitOps appends up to count byte-driven operations to f, drawing and
// extending a register pool. Programs are valid by construction: every
// register is defined before use, labels come from the structured-control
// helpers, and global accesses use properly aligned in-bounds immediates
// (wild accesses go through register-valued addresses, which may trap —
// traps are legitimate outcomes, not generator bugs).
func emitOps(z *fuzzSrc, f *ir.FuncBuilder, pool []ir.Reg, gbase uint64, gwords, count int, depth int) []ir.Reg {
	pick := func() ir.Reg { return pool[z.n(len(pool))] }
	intBinOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr}
	divOps := []ir.Op{ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem}
	cmpOps := []ir.Op{ir.OpICmpEQ, ir.OpICmpNE, ir.OpICmpULT, ir.OpICmpSLT, ir.OpICmpSLE}
	widths := []ir.Width{ir.W8, ir.W16, ir.W32, ir.W64}
	for k := 0; k < count; k++ {
		switch z.n(12) {
		case 0, 1, 2:
			w := widths[z.n(len(widths))]
			pool = append(pool, f.BinW(w, intBinOps[z.n(len(intBinOps))], pick(), pick()))
		case 3:
			// Division traps on zero divisors and INT_MIN/-1: exercised on
			// purpose, with an immediate fallback so not every program dies.
			b := ir.Src(pick())
			if z.n(2) == 0 {
				b = ir.C(uint64(1 + z.n(200)))
			}
			pool = append(pool, f.BinW(ir.W32, divOps[z.n(len(divOps))], pick(), b))
		case 4:
			pool = append(pool, f.CmpW(ir.W32, cmpOps[z.n(len(cmpOps))], pick(), pick()))
		case 5:
			// Aligned in-bounds global access.
			w := widths[z.n(len(widths))]
			off := int64(z.n(gwords)) * 8
			if z.n(2) == 0 {
				pool = append(pool, f.LoadW(w, ir.C(gbase), off))
			} else {
				f.StoreW(w, ir.C(gbase), pick(), off)
			}
		case 6:
			// Register-valued address: usually out of every segment.
			if z.n(4) == 0 {
				f.StoreW(ir.W32, pick(), pick(), int64(z.n(64))*4)
			} else {
				pool = append(pool, f.LoadW(ir.W32, pick(), int64(z.n(64))*4))
			}
		case 7:
			size := int64(8 * (1 + z.n(16)))
			addr := f.Alloca(size)
			f.Store64(addr, pick(), 0)
			pool = append(pool, f.Load64(addr, 0))
		case 8:
			pool = append(pool, f.Fmul(f.SiToFp(ir.W32, pick()), ir.CF(1.5)))
			pool = append(pool, f.FpToSi(ir.W32, f.Fadd(pick(), pick())))
		case 9:
			f.OutW(widths[z.n(len(widths))], pick())
		case 10:
			if depth > 0 {
				iters := 1 + z.n(10)
				inner := z.n(3) + 1
				f.For(ir.C(0), ir.C(uint64(iters)), func(i ir.Reg) {
					loopPool := append(append([]ir.Reg(nil), pool...), i)
					emitOps(z, f, loopPool, gbase, gwords, inner, depth-1)
				})
			}
		case 11:
			if depth > 0 {
				cond := pick()
				inner := z.n(3) + 1
				f.If(cond, func() {
					emitOps(z, f, pool, gbase, gwords, inner, depth-1)
				})
			}
		}
	}
	return pool
}

// genFuzzProg decodes the fuzz input into a valid program: a global
// segment seeded from the input, a helper function, and a byte-driven
// main that may call it and ends in a loop that prints every iteration,
// so every program has output events for convergence to check.
func genFuzzProg(data []byte) *ir.Program {
	z := &fuzzSrc{data: data}
	gwords := 4 + z.n(29)
	init := make([]uint64, gwords)
	for i := range init {
		init[i] = z.u64()
	}
	mb := ir.NewModule("fuzz")
	gbase := mb.GlobalU64s(init)

	helper := mb.Func("helper", 2)
	hpool := []ir.Reg{helper.Arg(0), helper.Arg(1), helper.Let(ir.C(z.u64()))}
	hpool = emitOps(z, helper, hpool, gbase, gwords, 2+z.n(6), 1)
	helper.Ret(hpool[z.n(len(hpool))])

	main := mb.Func("main", 0)
	pool := []ir.Reg{
		main.Let(ir.C(z.u64())),
		main.Let(ir.C(gbase)),
		main.Let(ir.C(uint64(z.n(255)))),
	}
	nops := 4 + z.n(40)
	for k := 0; k < nops; k++ {
		if z.n(8) == 0 {
			pool = append(pool, main.Call("helper", pool[z.n(len(pool))], pool[z.n(len(pool))]))
		} else {
			pool = emitOps(z, main, pool, gbase, gwords, 1, 2)
		}
	}
	main.For(ir.C(0), ir.C(uint64(1+z.n(8))), func(i ir.Reg) {
		loopPool := emitOps(z, main, append(append([]ir.Reg(nil), pool...), i), gbase, gwords, 1+z.n(3), 1)
		w := []ir.Width{ir.W8, ir.W16, ir.W32, ir.W64}[z.n(4)]
		main.OutW(w, loopPool[z.n(len(loopPool))])
	})
	main.Out64(pool[len(pool)-1])
	main.RetVoid()

	p, err := mb.Build()
	if err != nil {
		// The generator is valid by construction; a build error is a bug.
		panic(err)
	}
	return p
}

// fuzzSeeds is FuzzVM's seed corpus.
func fuzzSeeds() [][]byte {
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	return [][]byte{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		[]byte("the quick brown fox jumps over the lazy dog and keeps going for a while"),
		seed,
	}
}

// TestFuzzProgramsPrintInLoops checks that FuzzVM reaches output events:
// every seed decodes to a program that prints more than once, so its
// golden run keeps several output snapshots and injected runs check
// themselves right after outputs.
func TestFuzzProgramsPrintInLoops(t *testing.T) {
	for i, data := range fuzzSeeds() {
		p := genFuzzProg(data)
		golden, err := Run(p, Options{Checkpoint: 64, MaxDyn: 1 << 20, MaxOutput: 1 << 14, MaxDepth: 32})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(golden.Trace.outs.snaps); golden.Stop == StopReturned && n < 2 {
			t.Errorf("seed %d: the golden run kept %d output snapshots, want at least 2", i, n)
		}
	}
}

// FuzzVM generates random programs, injection plans and resume points and
// checks the VM's core contracts on each: runs never panic, the dynamic
// budget is always respected, the sprint loop agrees with stepping every
// instruction, checkpointing never perturbs a run, and
// resuming from any captured snapshot — fault-free, with a register
// injection plan, or with a scheduled memory flip — is bit-identical to
// the corresponding cold start. A register plan also matches its stepped
// reference (the same run with CountRoles, which steps every
// instruction), so the injection horizon is checked against execution
// that has none.
func FuzzVM(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := genFuzzProg(data)
		z := &fuzzSrc{data: data}
		maxDyn := uint64(4000 + 64*z.n(250))
		base := Options{MaxDyn: maxDyn, MaxOutput: 1 << 14, MaxDepth: 32}

		straight, err := Run(p, base)
		if err != nil {
			t.Fatalf("straight run: %v", err)
		}
		if straight.Dyn > maxDyn {
			t.Fatalf("dynamic budget violated: %d > %d", straight.Dyn, maxDyn)
		}

		// Both loops over the handler table must agree: the straight run
		// sprints, its stepped reference runs every instruction through
		// the observer tier. The handlers are shared, so this checks the
		// sprint loop's counters, horizons and exits; the semantics'
		// oracle is TestEveryOpcodeExecutes.
		stepOpts := base
		stepOpts.CountRoles = true
		stepped, err := Run(p, stepOpts)
		if err != nil {
			t.Fatalf("stepped run: %v", err)
		}
		sameStepped(t, "straight vs stepped", straight, stepped)

		ckOpts := base
		ckOpts.Checkpoint = uint64(8 + z.n(300))
		ckOpts.MaxSnapshots = 2 + z.n(40)
		ckpt, err := Run(p, ckOpts)
		if err != nil {
			t.Fatalf("checkpointing run: %v", err)
		}
		sameResult(t, "checkpointing run", ckpt, straight)

		for _, s := range ckpt.Snapshots {
			if s.Dyn >= maxDyn {
				t.Fatalf("snapshot beyond the budget: dyn=%d", s.Dyn)
			}
		}
		if len(ckpt.Snapshots) == 0 {
			return
		}

		// Fault-free resume from a fuzz-chosen snapshot.
		snap := ckpt.Snapshots[z.n(len(ckpt.Snapshots))]
		resumeOpts := base
		resumeOpts.Resume = snap
		res, err := Run(p, resumeOpts)
		if err != nil {
			t.Fatalf("resume from dyn=%d: %v", snap.Dyn, err)
		}
		sameResult(t, fmt.Sprintf("resume from dyn=%d", snap.Dyn), res, straight)
		if res.Dyn > maxDyn {
			t.Fatalf("resumed run violated the budget: %d > %d", res.Dyn, maxDyn)
		}

		// A register plan behaves identically from a cold start and from a
		// snapshot preceding its first candidate.
		onWrite := z.n(2) == 1
		mkPlan := func() *Plan {
			pl := &Plan{
				OnWrite:   onWrite,
				FirstCand: snap.Candidates(onWrite) + uint64(z.n(64)),
				MaxFlips:  1 + z.n(5),
				SameReg:   z.n(2) == 0,
				PinnedBit: -1,
				Rng:       xrand.ForExperiment(uint64(len(data)), uint64(z.n(16))),
			}
			if !pl.SameReg && pl.MaxFlips > 1 {
				win := uint64(1 + z.n(20))
				pl.NextWindow = func(r *xrand.Rand) uint64 { return win }
			}
			return pl
		}
		zz := *z // same decisions for both plan constructions
		planStraight := base
		planStraight.Plan = mkPlan()
		*z = zz
		planResumed := base
		planResumed.Plan = mkPlan()
		planResumed.Resume = snap
		ps, err := Run(p, planStraight)
		if err != nil {
			t.Fatalf("plan straight: %v", err)
		}
		if ps.Dyn > maxDyn {
			t.Fatalf("plan run violated the budget: %d > %d", ps.Dyn, maxDyn)
		}
		pr, err := Run(p, planResumed)
		if err != nil {
			t.Fatalf("plan resumed: %v", err)
		}
		sameResult(t, "plan resumed vs cold", pr, ps)
		*z = zz
		planStepped := base
		planStepped.Plan = mkPlan()
		planStepped.CountRoles = true
		pst, err := Run(p, planStepped)
		if err != nil {
			t.Fatalf("plan stepped: %v", err)
		}
		sameStepped(t, "plan cold vs stepped", ps, pst)

		// A scheduled memory flip behaves identically from a cold start and
		// from a snapshot at or before its instant.
		flip := MemFlip{
			AtDyn: snap.Dyn + uint64(z.n(200)),
			Word:  uint64(z.n(len(p.Globals)/8)) * 8,
			Mask:  z.u64() | 1,
		}
		memStraight := base
		memStraight.MemFlips = []MemFlip{flip}
		memResumed := memStraight
		memResumed.Resume = snap
		ms, err := Run(p, memStraight)
		if err != nil {
			t.Fatalf("memflip straight: %v", err)
		}
		mr, err := Run(p, memResumed)
		if err != nil {
			t.Fatalf("memflip resumed: %v", err)
		}
		sameResult(t, "memflip resumed vs cold", mr, ms)

		// Convergence-gated early termination must be invisible: every
		// faulted run carrying the checkpointing run's golden trace —
		// converged or not, cold or resumed — matches its traceless twin
		// bit for bit. A run resumed from the golden run's own snapshot
		// starts from page tables that share slices with the golden
		// snapshots', so its checks take the comparator's shared-page
		// shortcut; one resumed from another run's snapshot, off the
		// golden grid, shares none.
		trace := ckpt.Trace
		if trace == nil {
			t.Fatal("checkpointing run from instruction 0 recorded no trace")
		}
		if ckpt.Stop == StopReturned && len(trace.outs.snaps) == 0 {
			t.Fatal("a golden run that printed kept no output snapshot")
		}

		*z = zz
		planConv := base
		planConv.Plan = mkPlan()
		planConv.Trace = trace
		pc, err := Run(p, planConv)
		if err != nil {
			t.Fatalf("plan converge cold: %v", err)
		}
		sameResult(t, "plan converge cold vs full", pc, ps)

		*z = zz
		planConvRes := base
		planConvRes.Plan = mkPlan()
		planConvRes.Trace = trace
		planConvRes.Resume = snap
		pcr, err := Run(p, planConvRes)
		if err != nil {
			t.Fatalf("plan converge resumed: %v", err)
		}
		sameResult(t, "plan converge resumed vs full", pcr, ps)

		offOpts := ckOpts
		offOpts.Checkpoint++
		off, err := Run(p, offOpts)
		if err != nil {
			t.Fatalf("off-grid checkpointing run: %v", err)
		}
		if i := len(off.Snapshots) - 1; i >= 0 {
			*z = zz
			planConvOff := base
			planConvOff.Plan = mkPlan()
			planConvOff.Trace = trace
			for i > 0 && off.Snapshots[i].Candidates(onWrite) > planConvOff.Plan.FirstCand {
				i--
			}
			if off.Snapshots[i].Candidates(onWrite) <= planConvOff.Plan.FirstCand {
				planConvOff.Resume = off.Snapshots[i]
				pco, err := Run(p, planConvOff)
				if err != nil {
					t.Fatalf("plan converge resumed off the grid: %v", err)
				}
				sameResult(t, "plan converge resumed off the grid vs full", pco, ps)
			}
		}

		memConv := memStraight
		memConv.Trace = trace
		mc, err := Run(p, memConv)
		if err != nil {
			t.Fatalf("memflip converge: %v", err)
		}
		sameResult(t, "memflip converge vs full", mc, ms)

		// The kill switch forces full execution and clears the provenance.
		*z = zz
		planKill := planConv
		planKill.Plan = mkPlan()
		planKill.Disable = TierConverge
		pk, err := Run(p, planKill)
		if err != nil {
			t.Fatalf("plan converge-disabled: %v", err)
		}
		if pk.Converged {
			t.Fatal("converge-disabled run reported convergence")
		}
		sameResult(t, "plan converge-disabled vs full", pk, ps)

		// Compiled fast tier: fuzz-generated programs never have kernels
		// (the registry gate is keyed by name), so draw a real suite
		// workload with fuzz-chosen budgets and pit the compiled tier
		// against the interpreter — results, trap surfaces and snapshots
		// must be bit-identical, and snapshots must resume across tiers.
		wp := suitePrograms()[z.n(len(suitePrograms()))]
		wOpts := Options{
			MaxDyn:       uint64(1000 + 64*z.n(400)),
			MaxOutput:    1 << 14,
			Checkpoint:   uint64(100 + z.n(400)),
			MaxSnapshots: 4,
		}
		wFast, err := Run(wp, wOpts)
		if err != nil {
			t.Fatalf("workload compiled: %v", err)
		}
		wSlowOpts := wOpts
		wSlowOpts.Disable = TierCompile
		wSlow, err := Run(wp, wSlowOpts)
		if err != nil {
			t.Fatalf("workload interpreted: %v", err)
		}
		sameResult(t, "workload compiled vs interpreted", wFast, wSlow)
		if len(wFast.Snapshots) != len(wSlow.Snapshots) {
			t.Fatalf("workload snapshot counts diverge: %d compiled vs %d interpreted",
				len(wFast.Snapshots), len(wSlow.Snapshots))
		}
		if len(wFast.Snapshots) > 0 {
			wSnap := wFast.Snapshots[z.n(len(wFast.Snapshots))]
			xOpts := Options{MaxDyn: wOpts.MaxDyn, MaxOutput: wOpts.MaxOutput}
			xWant, err := Run(wp, xOpts)
			if err != nil {
				t.Fatalf("workload cross-tier baseline: %v", err)
			}
			xOpts.Resume = wSnap
			xOpts.Disable = TierCompile
			xr, err := Run(wp, xOpts)
			if err != nil {
				t.Fatalf("workload cross-tier resume: %v", err)
			}
			sameResult(t, "interpreted resume from compiled workload snapshot", xr, xWant)
			xOpts.Disable = 0
			xOpts.Resume = wSlow.Snapshots[z.n(len(wSlow.Snapshots))]
			xc, err := Run(wp, xOpts)
			if err != nil {
				t.Fatalf("workload cross-tier resume compiled: %v", err)
			}
			sameResult(t, "compiled resume from interpreted workload snapshot", xc, xWant)
		}
	})
}
