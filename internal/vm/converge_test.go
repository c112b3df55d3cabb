package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// goldenWithTrace profiles p with checkpointing at the campaign
// defaults; the run's golden trace is its kept snapshots.
func goldenWithTrace(t *testing.T, p *ir.Program) *Result {
	t.Helper()
	golden, err := Run(p, Options{Checkpoint: 64, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	if golden.Trace == nil {
		t.Fatal("checkpointing run from instruction 0 produced no trace")
	}
	if len(golden.Snapshots) == 0 {
		t.Fatal("golden run kept no snapshots to converge against")
	}
	return golden
}

// snapshotDiff names the first part of the machine state in which two
// snapshots differ, or returns "" when they hold the same state.
func snapshotDiff(a, b *Snapshot) string {
	switch {
	case a.Dyn != b.Dyn || a.ReadSlots != b.ReadSlots || a.Writes != b.Writes:
		return "counters"
	case a.sp != b.sp || a.stackHW != b.stackHW:
		return "sp"
	case !reflect.DeepEqual(a.frames, b.frames):
		return "frames"
	case !slices.Equal(a.regSlab, b.regSlab):
		return "registers"
	case !bytes.Equal(a.out, b.out):
		return "output"
	}
	ag, as := a.tables()
	bg, bs := b.tables()
	for _, seg := range []struct {
		name string
		a, b [][]byte
	}{{"globals", ag, bg}, {"stack", as, bs}} {
		for p := range max(len(seg.a), len(seg.b)) {
			if !equalPadded(pageAt(seg.a, p), pageAt(seg.b, p)) {
				return fmt.Sprintf("%s page %d", seg.name, p)
			}
		}
	}
	return ""
}

// TestConvergeComparator holds the exact comparator to every part of the
// machine state the continuation reads. A run resumed from golden
// snapshot r and replayed fault-free to a later golden snapshot s holds
// s's state, so it must converge. Each case then changes one part and
// must not converge; where a case names a twin, that identical state must
// still converge. The output's bytes are no such part: a run that printed
// another byte converges and keeps it. The program calls a function that
// allocas, stores and returns, which leaves stale bytes above sp, stores
// to one globals page and writes a byte of output every iteration, so
// between r and s the run dirties that globals page and the stack and
// appends output.
func TestConvergeComparator(t *testing.T) {
	mb := ir.NewModule("conv-compare")
	g := mb.GlobalU64s(make([]uint64, 128)) // 4 pages; the loop stores to the first
	h := mb.Func("scratch", 1)
	buf := h.Alloca(32)
	h.Store64(buf, h.Arg(0), 0)
	h.Store64(buf, h.BinW(ir.W64, ir.OpXor, h.Arg(0), ir.C(0x5a5a)), 8)
	h.Ret(h.Load64(buf, 8))
	f := mb.Func("main", 0)
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(300), func(i ir.Reg) {
		v := f.Call("scratch", i)
		f.Store64(f.Idx(ir.C(g), f.BinW(ir.W64, ir.OpAnd, i, ir.C(31)), 8), v, 0)
		f.Mov(acc, f.BinW(ir.W64, ir.OpAdd, acc, v))
		f.Out8(acc)
	})
	f.RetVoid()
	p := mb.MustBuild()
	golden := goldenWithTrace(t, p)

	// s is a snapshot in main, after a return, at least two snapshot
	// intervals past r.
	const rIdx = 2
	r := golden.Snapshots[rIdx]
	var s *Snapshot
	for _, c := range golden.Snapshots[rIdx+2:] {
		if c.sp < c.stackHW {
			s = c
			break
		}
	}
	if s == nil {
		t.Fatal("no golden snapshot with stack bytes above sp")
	}
	replay := func() *machine {
		// The replay runs to s's instant unchecked, like a run whose
		// convergence checks are not scheduled: no output is an event.
		m := &machine{prog: p, maxDyn: DefaultMaxDyn, maxOut: DefaultMaxOutput, maxDepth: DefaultMaxDepth,
			trace: golden.Trace, outCheck: noOutCheck}
		if err := m.restore(r); err != nil {
			t.Fatal(err)
		}
		m.globals.track(nil)
		m.stack.track(nil)
		m.startGlobals, m.startStack = r.tables()
		m.outStart = len(m.out)
		if m.sprint(&m.frames[len(m.frames)-1], s.Dyn) == nil || m.dyn != s.Dyn {
			t.Fatalf("replay from dyn %d stopped at %d, before snapshot dyn %d", r.Dyn, m.dyn, s.Dyn)
		}
		return m
	}

	// The parts the cases change must be live: output appended since r,
	// stale stack bytes above sp, globals page 0 stored to by both runs
	// and page 2 by neither.
	m := replay()
	rg, _ := r.tables()
	sg, _ := s.tables()
	switch {
	case len(m.out) <= m.outStart:
		t.Fatal("the replay appended no output")
	case m.sp >= m.stackHW:
		t.Fatal("the replay left no stack bytes above sp")
	case !m.globals.dirty.get(0) || samePage(sg[0], rg[0]):
		t.Fatal("globals page 0 was not stored to between r and s")
	case m.globals.dirty.get(2) || !samePage(sg[2], rg[2]):
		t.Fatal("globals page 2 was stored to between r and s")
	}
	if !m.sameState(s) {
		t.Fatal("the fault-free replay does not converge with the golden snapshot at its instant")
	}

	const p2 = 2 * pageSize
	suffix := golden.Dyn - s.Dyn
	for _, c := range []struct {
		name         string
		twin, change func(m *machine)
	}{
		{name: "frame pc", change: func(m *machine) { m.frames[0].pc++ }},
		{name: "live register", change: func(m *machine) { m.regArena[m.regTop-1] ^= 1 }},
		{name: "output length", change: func(m *machine) { m.out = append(m.out, 0) }},
		{
			// The golden suffix, run from this instant, must end within
			// the hang budget.
			name:   "hang budget",
			twin:   func(m *machine) { m.maxDyn = m.dyn + suffix },
			change: func(m *machine) { m.maxDyn = m.dyn + suffix - 1 },
		},
		{
			name: "globals page the run stored to",
			twin: func(m *machine) { m.globals.store(p2+8, 8, m.globals.load(p2+8, 8)) },
			change: func(m *machine) {
				m.globals.store(p2+8, 8, m.globals.load(p2+8, 8)^1<<40)
			},
		},
		{
			// As if the run had never stored to page 0: the golden run
			// did after r, so s's page is not the one the run started
			// from.
			name: "globals page only the golden run stored to",
			twin: func(m *machine) { m.globals.dirty[0] &^= 1 },
			change: func(m *machine) {
				m.globals.dirty[0] &^= 1
				m.globals.flat[3] ^= 0x10
			},
		},
		{name: "stack byte above sp", change: func(m *machine) { m.stack.flat[m.sp] ^= 1 }},
	} {
		if c.twin != nil {
			m := replay()
			c.twin(m)
			if !m.sameState(s) {
				t.Errorf("%s: the identical state does not converge", c.name)
			}
		}
		m := replay()
		c.change(m)
		if m.sameState(s) {
			t.Errorf("%s: a state that differs there converges", c.name)
		}
	}

	// No instruction reads the output: a run that printed another byte
	// after its start converges, and its output keeps that byte, followed
	// by the rest of the golden output.
	m = replay()
	m.out[len(m.out)-1] ^= 1
	want := append(bytes.Clone(m.out), golden.Output[len(m.out):]...)
	if !m.sameState(s) {
		t.Fatal("output byte after the start: a state that differs only there does not converge")
	}
	m.convergeFinish(s)
	if !m.ownOut || !bytes.Equal(m.out, want) {
		t.Errorf("output byte after the start: the converged output is not the run's own followed by the golden rest")
	}
}

// TestConvergeDifferentialWorkloads proves the tentpole invariant at the
// VM level on every workload: a faulted run carrying the golden trace is
// bit-identical to the traceless run — whether it converged, diverged, or
// had convergence disabled by the kill switch — and at least some runs
// across the suite actually terminate early.
func TestConvergeDifferentialWorkloads(t *testing.T) {
	converged := 0
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		golden := goldenWithTrace(t, p)
		base := Options{
			MaxDyn:    10*golden.Dyn + 1000,
			MaxOutput: 4*len(golden.Output) + 4096,
		}
		for seed := uint64(0); seed < 6; seed++ {
			for _, onWrite := range []bool{false, true} {
				cands := golden.ReadSlots
				if onWrite {
					cands = golden.Writes
				}
				mkPlan := func() *Plan {
					rng := xrand.ForExperiment(77, seed)
					return &Plan{
						OnWrite:   onWrite,
						FirstCand: rng.Uint64n(cands),
						MaxFlips:  1 + int(seed%3),
						SameReg:   true,
						PinnedBit: -1,
						Rng:       rng,
					}
				}
				label := fmt.Sprintf("%s seed=%d onWrite=%v", bench.Name, seed, onWrite)

				full := base
				full.Plan = mkPlan()
				want, err := Run(p, full)
				if err != nil {
					t.Fatalf("%s: full run: %v", label, err)
				}

				conv := base
				conv.Plan = mkPlan()
				conv.Trace = golden.Trace
				got, err := Run(p, conv)
				if err != nil {
					t.Fatalf("%s: converge run: %v", label, err)
				}
				sameResult(t, label+": converge vs full", got, want)
				if got.Converged {
					converged++
				}

				off := base
				off.Plan = mkPlan()
				off.Trace = golden.Trace
				off.Disable = TierConverge
				kill, err := Run(p, off)
				if err != nil {
					t.Fatalf("%s: converge-disabled run: %v", label, err)
				}
				if kill.Converged {
					t.Fatalf("%s: converge-disabled run reported convergence", label)
				}
				sameResult(t, label+": converge-disabled vs full", kill, want)
			}
		}
	}
	if converged == 0 && !EnvDisabled().Has(TierConverge) {
		t.Error("no run converged across the whole suite; the detector never fires")
	}
}

// TestConvergeMemFlipGuaranteed pins a convergence case by construction:
// a memory flip lands in a global word that the program overwrites every
// iteration and never reads, so the corrupted state must reconverge with
// the golden run and terminate early with the golden result.
func TestConvergeMemFlipGuaranteed(t *testing.T) {
	mb := ir.NewModule("conv-memflip")
	g := mb.GlobalU64s([]uint64{0x1234_5678_9abc_def0, 0})
	f := mb.Func("main", 0)
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(2000), func(i ir.Reg) {
		// G[1] is stored every iteration and never loaded: any corruption
		// in it is overwritten within one iteration.
		f.StoreW(ir.W64, ir.C(g), i, 8)
		f.Mov(acc, f.BinW(ir.W64, ir.OpXor, acc, f.LoadW(ir.W64, ir.C(g), 0)))
	})
	f.Out64(acc)
	f.RetVoid()
	p, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenWithTrace(t, p)

	flip := MemFlip{AtDyn: golden.Dyn / 2, Word: 8, Mask: 0x00ff_00ff_00ff_00ff}
	base := Options{
		MaxDyn:    10*golden.Dyn + 1000,
		MaxOutput: 4*len(golden.Output) + 4096,
		MemFlips:  []MemFlip{flip},
	}
	want, err := Run(p, base)
	if err != nil {
		t.Fatal(err)
	}
	conv := base
	conv.Trace = golden.Trace
	got, err := Run(p, conv)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged && !EnvDisabled().Has(TierConverge) {
		t.Error("dead memory corruption did not converge with the golden run")
	}
	sameResult(t, "guaranteed memflip convergence", got, want)
	if got.Stop != StopReturned || got.Dyn != golden.Dyn {
		t.Errorf("converged run reports stop=%s dyn=%d, want returned/%d", got.Stop, got.Dyn, golden.Dyn)
	}
}

// TestConvergePlanGuaranteed finds a register fault that is masked by
// construction (the flipped operand feeds an And with zero) and checks it
// converges; scanning the candidate space also exercises many
// non-converging comparisons against the same trace.
func TestConvergePlanGuaranteed(t *testing.T) {
	mb := ir.NewModule("conv-plan")
	g := mb.GlobalU64s([]uint64{7})
	f := mb.Func("main", 0)
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(300), func(i ir.Reg) {
		x := f.Let(f.LoadW(ir.W64, ir.C(g), 0))
		// x is consumed only by And with 0: flips on that read are always
		// masked out of the dataflow and the register is re-let next
		// iteration.
		dead := f.BinW(ir.W64, ir.OpAnd, x, ir.C(0))
		f.Mov(acc, f.BinW(ir.W64, ir.OpAdd, acc, dead))
	})
	f.Out64(acc)
	f.RetVoid()
	p, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenWithTrace(t, p)
	base := Options{
		MaxDyn:    10*golden.Dyn + 1000,
		MaxOutput: 4*len(golden.Output) + 4096,
	}
	found := false
	for cand := uint64(40); cand < 140 && !found; cand++ {
		mkPlan := func() *Plan {
			return &Plan{
				FirstCand: cand,
				MaxFlips:  1,
				SameReg:   true,
				PinnedBit: -1,
				Rng:       xrand.ForExperiment(5, cand),
			}
		}
		full := base
		full.Plan = mkPlan()
		want, err := Run(p, full)
		if err != nil {
			t.Fatal(err)
		}
		conv := base
		conv.Plan = mkPlan()
		conv.Trace = golden.Trace
		got, err := Run(p, conv)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("cand=%d", cand), got, want)
		found = found || got.Converged
	}
	if !found && !EnvDisabled().Has(TierConverge) {
		t.Error("no masked register fault converged in the scanned candidate range")
	}
}

// TestConvergeTraceValidation covers the trace acceptance rules: a trace
// from a different program is an error; incompatible budgets or exception
// options silently disable convergence but leave the run bit-identical.
func TestConvergeTraceValidation(t *testing.T) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	other, err := prog.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	po, err := other.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenWithTrace(t, p)

	mkPlan := func() *Plan {
		return &Plan{FirstCand: 1000, MaxFlips: 1, SameReg: true, PinnedBit: -1,
			Rng: xrand.ForExperiment(9, 9)}
	}
	// Rejected even under the kill switches: wiring bugs must not pass
	// validation only in ablation runs.
	if _, err := Run(po, Options{Plan: mkPlan(), Trace: golden.Trace}); err == nil {
		t.Error("trace from a different program accepted")
	}
	if _, err := Run(po, Options{Plan: mkPlan(), Trace: golden.Trace, Disable: TierConverge}); err == nil {
		t.Error("trace from a different program accepted with TierConverge disabled")
	}

	// A hang budget below the golden run's length cannot replay the golden
	// continuation; convergence must disable itself, not misreport.
	tight := Options{MaxDyn: golden.Dyn / 2, Plan: mkPlan(), Trace: golden.Trace}
	res, err := Run(p, tight)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("run with an incompatible budget reported convergence")
	}
	wantOpts := Options{MaxDyn: golden.Dyn / 2, Plan: mkPlan()}
	want, err := Run(p, wantOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "incompatible budget", res, want)

	// Mismatched alignment semantics likewise disable convergence.
	align := Options{NoAlignTrap: true, Plan: mkPlan(), Trace: golden.Trace}
	res, err = Run(p, align)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("run with mismatched alignment options reported convergence")
	}
}

// TestConvergeResumeOffTraceGrid checks that convergence places no
// requirement on where a run resumes: a run resumed from a snapshot of
// another checkpointing run, at an instant off the golden run's grid
// (interval 37 against 64), matches its cold twin bit for bit and
// converges exactly when the cold run does, for a set of plans at least
// one of which converges.
func TestConvergeResumeOffTraceGrid(t *testing.T) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenWithTrace(t, p)
	offGrid, err := Run(p, Options{Checkpoint: 37, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(offGrid.Snapshots) == 0 {
		t.Fatal("no off-grid snapshots")
	}
	snap := offGrid.Snapshots[len(offGrid.Snapshots)/2]
	for _, g := range golden.Snapshots {
		if g.Dyn == snap.Dyn {
			t.Fatalf("snapshot at dyn %d is on the golden grid", snap.Dyn)
		}
	}
	converged := 0
	for seed := uint64(0); seed < 40; seed++ {
		mkPlan := func() *Plan {
			return &Plan{FirstCand: snap.Candidates(false) + 100 + seed, MaxFlips: 1, SameReg: true,
				PinnedBit: -1, Rng: xrand.ForExperiment(3, seed)}
		}
		want, err := Run(p, Options{Plan: mkPlan(), Trace: golden.Trace})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(p, Options{Plan: mkPlan(), Resume: snap, Trace: golden.Trace})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("off-grid resume, seed %d", seed)
		sameResult(t, label, got, want)
		if got.Converged != want.Converged {
			t.Fatalf("%s: converged=%v, the cold run converged=%v", label, got.Converged, want.Converged)
		}
		if got.Converged {
			converged++
		}
	}
	if converged == 0 && !EnvDisabled().Has(TierConverge) {
		t.Error("no plan converged, so the off-grid resume was never held to a converging run")
	}
}

// retConvergeProgram returns a program whose main calls a looping
// function four times and prints each result: spin(n) counts to n and
// returns 3n, whatever its loop did, so a flip of its loop counter
// changes how long it runs but not what it returns.
func retConvergeProgram() *ir.Program {
	mb := ir.NewModule("ret-converge")
	h := mb.Func("spin", 1)
	h.For(ir.C(0), h.Arg(0), func(ir.Reg) {})
	h.Ret(h.Mul(h.Arg(0), ir.C(3)))
	f := mb.Func("main", 0)
	f.For(ir.C(0), ir.C(4), func(k ir.Reg) {
		f.Out32(f.Call("spin", f.Add(k, ir.C(40))))
	})
	f.RetVoid()
	return mb.MustBuild()
}

// convCase is one inject-on-read experiment: its options, the result with
// convergence on and that of its convergence-off twin.
type convCase struct {
	opts      func() Options
	got, twin *Result
}

// lengthened reports whether the case's twin ran longer than the golden
// run and still returned with the golden output.
func (c *convCase) lengthened(golden *Result) bool {
	return c.twin.Stop == StopReturned && c.twin.Dyn > golden.Dyn && bytes.Equal(c.twin.Output, golden.Output)
}

// convergeCases runs every inject-on-read candidate of golden's program,
// flipping bit 3, with convergence against trace on and off; resume,
// when set, picks each run's resume snapshot. Every run must equal its
// twin in everything but Converged.
func convergeCases(t *testing.T, p *ir.Program, golden *Result, trace *GoldenTrace, maxDyn uint64, resume func(cand uint64) *Snapshot) []convCase {
	t.Helper()
	var cases []convCase
	for cand := uint64(0); cand < golden.ReadSlots; cand++ {
		opts := func() Options {
			o := Options{
				MaxDyn: maxDyn,
				Plan: &Plan{FirstCand: cand, MaxFlips: 1, SameReg: true, PinnedBit: 3,
					Rng: xrand.ForExperiment(11, cand)},
				Trace: trace,
			}
			if resume != nil {
				o.Resume = resume(cand)
			}
			return o
		}
		got, err := Run(p, opts())
		if err != nil {
			t.Fatal(err)
		}
		off := opts()
		off.Disable = TierConverge
		twin, err := Run(p, off)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("cand %d", cand), got, twin)
		cases = append(cases, convCase{opts, got, twin})
	}
	return cases
}

// noGridGolden profiles p with a checkpoint interval longer than the run:
// its trace has no grid, so a run converges only at a return to main or
// right after an output. It checks that the trace keeps rets return and
// outs output snapshots.
func noGridGolden(t *testing.T, p *ir.Program, rets, outs int) *Result {
	t.Helper()
	prof, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Run(p, Options{Checkpoint: prof.Dyn + 1})
	if err != nil {
		t.Fatal(err)
	}
	if g, r, o := len(golden.Snapshots), len(golden.Trace.rets.snaps), len(golden.Trace.outs.snaps); g != 0 || r != rets || o != outs {
		t.Fatalf("golden run kept %d grid, %d return and %d output snapshots, want 0, %d and %d", g, r, o, rets, outs)
	}
	return golden
}

// TestReturnConvergeLongerCallee: a flip of the callee's loop counter
// that makes it run longer, without changing what it returns, converges
// at the next return to main, late, although the run never meets the
// golden state at an equal instant. Its counters and output are its
// twin's.
func TestReturnConvergeLongerCallee(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := retConvergeProgram()
	golden := noGridGolden(t, p, 4, 4)
	longer := 0
	for _, c := range convergeCases(t, p, golden, golden.Trace, 10*golden.Dyn, nil) {
		if !c.lengthened(golden) {
			continue
		}
		if !c.got.Converged {
			t.Errorf("a run %d instructions longer with the golden output did not converge", c.twin.Dyn-golden.Dyn)
		}
		longer++
	}
	if longer == 0 {
		t.Fatal("no flip lengthened the callee without changing the output")
	}
}

// TestReturnConvergeWrongOutput: a flip of the value main prints converges
// at the next return to main with the wrong byte in its output, so the
// exact classifier still reports the SDC its twin shows.
func TestReturnConvergeWrongOutput(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := retConvergeProgram()
	golden := noGridGolden(t, p, 4, 4)
	sdc := 0
	for _, c := range convergeCases(t, p, golden, golden.Trace, 10*golden.Dyn, nil) {
		if c.got.Converged && !bytes.Equal(c.got.Output, golden.Output) {
			if len(c.got.Output) != len(golden.Output) || c.got.Stop != StopReturned {
				t.Errorf("converged SDC: stop %s with %d output bytes, want returned with %d",
					c.got.Stop, len(c.got.Output), len(golden.Output))
			}
			sdc++
		}
	}
	if sdc == 0 {
		t.Fatal("no run that printed a wrong value converged")
	}
}

// TestReturnConvergeHangBudget: a run whose golden suffix, shifted to the
// instant it returns to main at, would end past the hang budget does not
// converge there, and hangs exactly like its twin; one that ends exactly
// at the budget returns, like its twin, and converges.
func TestReturnConvergeHangBudget(t *testing.T) {
	p := retConvergeProgram()
	golden := noGridGolden(t, p, 4, 4)
	var long *convCase
	for _, c := range convergeCases(t, p, golden, golden.Trace, 10*golden.Dyn, nil) {
		if c.lengthened(golden) {
			long = &c
			break
		}
	}
	if long == nil {
		t.Fatal("no flip lengthened the callee without changing the output")
	}
	checkHangBudget(t, p, long)
}

// checkHangBudget runs a lengthened case under a hang budget one
// instruction short of its twin's length, where the golden suffix shifted
// to where the case converges would end past the budget, and under a
// budget of exactly that length. Both budgets fit the golden run, so the
// trace stays compatible.
func checkHangBudget(t *testing.T, p *ir.Program, long *convCase) {
	t.Helper()
	for _, c := range []struct {
		maxDyn    uint64
		converged bool
		stop      StopReason
	}{
		{long.twin.Dyn - 1, false, StopHang},
		{long.twin.Dyn, !EnvDisabled().Has(TierConverge), StopReturned},
	} {
		opts := long.opts()
		opts.MaxDyn = c.maxDyn
		got, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts = long.opts()
		opts.MaxDyn = c.maxDyn
		opts.Disable = TierConverge
		twin, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("budget %d for a %d-instruction run", c.maxDyn, long.twin.Dyn)
		if got.Converged != c.converged || got.Stop != c.stop {
			t.Errorf("%s: converged=%v stop=%s, want %v and %s", label, got.Converged, got.Stop, c.converged, c.stop)
		}
		sameResult(t, label, got, twin)
	}
}

// TestReturnConvergeResumed: a run resumed from a grid snapshot counts
// its returns to main from the snapshot's count, so it converges at the
// same return as its cold twin, with the same result. The runs checked
// lengthen the callee, so only a return check can end them early, and
// some resume past a return to main.
func TestReturnConvergeResumed(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := retConvergeProgram()
	golden, err := Run(p, Options{Checkpoint: 16, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	maxDyn := 10 * golden.Dyn
	resume := func(cand uint64) *Snapshot { return snapshotBefore(golden.Snapshots, false, cand) }
	cold := convergeCases(t, p, golden, golden.Trace, maxDyn, nil)
	warm := convergeCases(t, p, golden, golden.Trace, maxDyn, resume)
	pastReturn := 0
	for i, c := range cold {
		w := warm[i]
		if !c.lengthened(golden) {
			continue
		}
		if !c.got.Converged {
			t.Fatalf("cand %d: the cold run lengthened by %d instructions did not converge", i, c.twin.Dyn-golden.Dyn)
		}
		sameResult(t, fmt.Sprintf("cand %d resumed", i), w.got, c.got)
		if !w.got.Converged {
			t.Fatalf("cand %d: the resumed run did not converge where its cold twin did", i)
		}
		if s := w.opts().Resume; s != nil && s.rets > 0 {
			pastReturn++
		}
	}
	if pastReturn == 0 {
		t.Fatal("no converging run resumed past a return to main")
	}
}

// TestReturnSnapshotsThinned: the golden run's return snapshots are
// capped and thinned like the grid. basicmath returns to main 80 times;
// under a cap of 8 the kept snapshots follow every stride-th return and
// hold the state an uncapped golden run recorded at that return.
func TestReturnSnapshotsThinned(t *testing.T) {
	bench, err := prog.ByName("basicmath")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := goldenWithTrace(t, p).Trace
	capped, err := Run(p, Options{Checkpoint: 64, MaxSnapshots: 8})
	if err != nil {
		t.Fatal(err)
	}
	thin := capped.Trace
	if full.rets.stride != 1 || len(full.rets.snaps) != 80 {
		t.Fatalf("uncapped golden run kept %d return snapshots at stride %d, want 80 at 1", len(full.rets.snaps), full.rets.stride)
	}
	if len(thin.rets.snaps) >= 8 || thin.rets.stride < 2 || len(thin.rets.snaps) == 0 {
		t.Fatalf("capped golden run kept %d return snapshots at stride %d", len(thin.rets.snaps), thin.rets.stride)
	}
	for i, s := range thin.rets.snaps {
		k := uint64(i+1) * thin.rets.stride
		if s.rets != k || thin.rets.at(k) != s {
			t.Fatalf("return snapshot %d follows return %d, want %d", i, s.rets, k)
		}
		if diff := snapshotDiff(s, full.rets.snaps[k-1]); diff != "" {
			t.Fatalf("return snapshot after return %d differs from the uncapped run's in its %s", k, diff)
		}
	}
}

// TestOutputSnapshotsThinned: the golden run's output snapshots share the
// return snapshots' capped, thinned list. basicmath prints over a hundred
// times; under a grid cap of 8 the kept output snapshots follow every
// stride-th output and hold the state a golden run under the campaign cap
// recorded after the same output. A thinning folds the dropped snapshots'
// deltas into their successors, so no kept snapshot of any list patches a
// dropped one.
func TestOutputSnapshotsThinned(t *testing.T) {
	bench, err := prog.ByName("basicmath")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := goldenWithTrace(t, p).Trace
	capped, err := Run(p, Options{Checkpoint: 64, MaxSnapshots: 8})
	if err != nil {
		t.Fatal(err)
	}
	thin := capped.Trace
	if len(thin.outs.snaps) >= 8 || thin.outs.stride <= full.outs.stride {
		t.Fatalf("capped golden run kept %d output snapshots at stride %d, the campaign cap %d at stride %d",
			len(thin.outs.snaps), thin.outs.stride, len(full.outs.snaps), full.outs.stride)
	}
	compared := 0
	for i, s := range thin.outs.snaps {
		k := uint64(i+1) * thin.outs.stride
		ref := full.outs.at(k)
		if ref == nil {
			continue
		}
		if diff := snapshotDiff(s, ref); diff != "" {
			t.Fatalf("output snapshot after output %d differs from the campaign cap's in its %s", k, diff)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no output snapshot kept under both caps")
	}
	for _, ss := range [][]*Snapshot{thin.snaps, thin.rets.snaps, thin.outs.snaps} {
		for _, s := range ss {
			for b := s.base; b != nil; b = b.base {
				if b.dropped {
					t.Fatalf("the snapshot at dyn %d patches the dropped snapshot at dyn %d", s.Dyn, b.Dyn)
				}
			}
		}
	}
}

// outIters is the number of iterations of outConvergeProgram's loop.
const outIters = 14

// outConvergeProgram returns a program whose main calls nothing and
// prints inside a loop: iteration i loads a value v, spins an inner loop
// as many times as v's low four bits say (1 to 15 times), stores i to
// scratch word i%6, and prints 3v+i as four bytes; one byte follows the
// loop. The scratch words are never read and nothing the spin loop
// computes is printed, so a flip in the spin loop changes how long an
// iteration runs, not what it prints, and the next iteration, whose spin
// loop runs too, overwrites every register it left different.
func outConvergeProgram() *ir.Program {
	mb := ir.NewModule("out-converge")
	vals := make([]uint64, outIters+6) // the values, then the scratch words
	for i := range outIters {
		vals[i] = uint64(16*i + 1 + 7*i%15)
	}
	g := mb.GlobalU64s(vals)
	f := mb.Func("main", 0)
	f.For(ir.C(0), ir.C(outIters), func(i ir.Reg) {
		v := f.Load64(f.Idx(ir.C(g), i, 8), 0)
		f.For(ir.C(0), f.And(v, ir.C(15)), func(ir.Reg) {})
		f.Store64(f.Idx(ir.C(g), f.Urem(i, ir.C(6)), 8), i, 8*outIters)
		f.Out32(f.Add(f.Mul(v, ir.C(3)), i))
	})
	f.Out8(ir.C(0x2a))
	f.RetVoid()
	return mb.MustBuild()
}

// beforeLastIteration reports whether the case's first flip landed before
// outConvergeProgram's last iteration, so a later iteration overwrites the
// registers it corrupted.
func (c *convCase) beforeLastIteration(golden *Result) bool {
	return c.twin.InjectionDyns[0] < golden.Trace.outs.snaps[outIters-2].Dyn
}

// TestOutputConvergeLongerIteration: a flip that makes an iteration run
// longer, without changing what it prints, converges right after a later
// output, although the run never meets the golden state at an equal
// instant and main never returns to itself. Its counters and output are
// its twin's. A flip in the last iteration leaves its registers
// different to the end, so it cannot converge.
func TestOutputConvergeLongerIteration(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := outConvergeProgram()
	golden := noGridGolden(t, p, 0, outIters+1)
	longer := 0
	for _, c := range convergeCases(t, p, golden, golden.Trace, 10*golden.Dyn, nil) {
		if !c.lengthened(golden) || !c.beforeLastIteration(golden) {
			continue
		}
		if !c.got.Converged {
			t.Errorf("a run %d instructions longer with the golden output did not converge", c.twin.Dyn-golden.Dyn)
		}
		longer++
	}
	if longer == 0 {
		t.Fatal("no flip lengthened an iteration without changing the output")
	}
}

// TestOutputConvergeWrongOutput: a flip of a value main prints converges
// right after a later output with the wrong bytes in its output, so the
// exact classifier still reports the SDC its twin shows.
func TestOutputConvergeWrongOutput(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := outConvergeProgram()
	golden := noGridGolden(t, p, 0, outIters+1)
	sdc := 0
	for _, c := range convergeCases(t, p, golden, golden.Trace, 10*golden.Dyn, nil) {
		if c.got.Converged && !bytes.Equal(c.got.Output, golden.Output) {
			if len(c.got.Output) != len(golden.Output) || c.got.Stop != StopReturned {
				t.Errorf("converged SDC: stop %s with %d output bytes, want returned with %d",
					c.got.Stop, len(c.got.Output), len(golden.Output))
			}
			sdc++
		}
	}
	if sdc == 0 {
		t.Fatal("no run that printed a wrong value converged")
	}
}

// TestOutputConvergeHangBudget: a run that converges right after an
// output does not when the golden suffix, shifted to that instant, would
// end past the hang budget; it hangs exactly like its twin. One whose
// budget is its twin's length converges.
func TestOutputConvergeHangBudget(t *testing.T) {
	p := outConvergeProgram()
	golden := noGridGolden(t, p, 0, outIters+1)
	var long *convCase
	for _, c := range convergeCases(t, p, golden, golden.Trace, 10*golden.Dyn, nil) {
		if c.lengthened(golden) {
			long = &c
			break
		}
	}
	if long == nil {
		t.Fatal("no flip lengthened an iteration without changing the output")
	}
	checkHangBudget(t, p, long)
}

// TestOutputConvergeResumed: a run resumed from a grid snapshot starts
// its output checks from the snapshot's place in the trace, so it
// converges right after the same output as its cold twin, with the same
// result. The runs checked lengthen an iteration, so the grid cannot end
// them early, and some resume past an output.
func TestOutputConvergeResumed(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := outConvergeProgram()
	golden, err := Run(p, Options{Checkpoint: 16, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	maxDyn := 10 * golden.Dyn
	resume := func(cand uint64) *Snapshot { return snapshotBefore(golden.Snapshots, false, cand) }
	cold := convergeCases(t, p, golden, golden.Trace, maxDyn, nil)
	warm := convergeCases(t, p, golden, golden.Trace, maxDyn, resume)
	pastOutput := 0
	for i, c := range cold {
		w := warm[i]
		if !c.lengthened(golden) || !c.beforeLastIteration(golden) {
			continue
		}
		if !c.got.Converged {
			t.Fatalf("cand %d: the cold run lengthened by %d instructions did not converge", i, c.twin.Dyn-golden.Dyn)
		}
		sameResult(t, fmt.Sprintf("cand %d resumed", i), w.got, c.got)
		if !w.got.Converged {
			t.Fatalf("cand %d: the resumed run did not converge where its cold twin did", i)
		}
		if s := w.opts().Resume; s != nil && len(s.out) > 0 {
			pastOutput++
		}
	}
	if pastOutput == 0 {
		t.Fatal("no converging run resumed past an output")
	}
}

// TestOutputConvergeBackOff: a run whose state differs from the golden
// run's at several output checks in a row is still caught once it
// reconverges, although its checks back off. A memory flip right after
// the first output corrupts scratch word 5, which the loop first stores
// to in its sixth iteration: the checks after outputs 1, 2 and 4 fail,
// and the next one, after output 8, matches.
func TestOutputConvergeBackOff(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	p := outConvergeProgram()
	golden := noGridGolden(t, p, 0, outIters+1)
	outs := golden.Trace.outs.snaps
	const scratch = 8 * (outIters + 5)
	word := func(s *Snapshot) uint64 {
		tbl, _ := s.tables()
		return binary.LittleEndian.Uint64(pageAt(tbl, pageOf(scratch))[scratch%pageSize:])
	}
	// Scratch word 5 keeps its initial value through output 4 and holds 5
	// from output 5 on.
	for k, s := range outs[:9] {
		if want := uint64(5 * boolBit(k >= 5)); word(s) != want {
			t.Fatalf("after output %d the scratch word is %d, want %d", k, word(s), want)
		}
	}
	opts := Options{
		MaxDyn:   10 * golden.Dyn,
		MemFlips: []MemFlip{{AtDyn: outs[0].Dyn, Word: scratch, Mask: 1 << 40}},
		Trace:    golden.Trace,
	}
	got, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Disable = TierConverge
	twin, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "scratch-word flip", got, twin)
	if !got.Converged {
		t.Fatal("a run that reconverged after three failed output checks did not converge")
	}
}

// TestCheckCursorHints: every grid snapshot of a golden run records its
// place in the trace, where a run resumed from it starts its grid and
// output check cursors; a snapshot of another run, even one holding the
// same state, starts them at the trace's beginning. Where the cursors
// start changes no result, only how far scheduleConv scans.
func TestCheckCursorHints(t *testing.T) {
	p := outConvergeProgram()
	golden, err := Run(p, Options{Checkpoint: 16, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run(p, Options{Checkpoint: 16, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	outs := golden.Trace.outs.snaps
	for i, s := range golden.Snapshots {
		m := &machine{trace: golden.Trace}
		m.startCursors(s)
		wantOut := sort.Search(len(outs), func(j int) bool { return len(outs[j].out) > len(s.out) })
		if m.convIdx != i || m.outIdx != wantOut {
			t.Fatalf("grid snapshot %d starts the cursors at %d and %d, want %d and %d", i, m.convIdx, m.outIdx, i, wantOut)
		}
		m = &machine{trace: golden.Trace}
		m.startCursors(other.Snapshots[i])
		if m.convIdx != 0 || m.outIdx != 0 {
			t.Fatalf("another run's snapshot %d starts the cursors at %d and %d, want 0 and 0", i, m.convIdx, m.outIdx)
		}
	}
	if len(outs) == 0 || golden.Snapshots[len(golden.Snapshots)-1].outIdx == 0 {
		t.Fatal("no grid snapshot follows an output snapshot")
	}
}
