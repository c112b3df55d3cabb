package vm

import (
	"fmt"
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// goldenWithTrace profiles p with checkpointing and trace recording at
// the campaign defaults.
func goldenWithTrace(t *testing.T, p *ir.Program) *Result {
	t.Helper()
	golden, err := Run(p, Options{Checkpoint: 64, MaxSnapshots: 512, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if golden.Trace == nil {
		t.Fatal("checkpointing run with RecordTrace produced no trace")
	}
	if golden.Trace.Entries() == 0 {
		t.Fatal("golden trace has no entries")
	}
	return golden
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

// TestConvergeResumeOffTraceGrid checks that resuming from a snapshot
// whose dynamic instant is not on the trace's boundary grid disables
// convergence silently rather than fingerprinting from a wrong baseline.
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
	// A second checkpointing run on a different grid yields snapshots at
	// instants the trace has no entries for.
	offGrid, err := Run(p, Options{Checkpoint: 37, MaxSnapshots: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(offGrid.Snapshots) == 0 {
		t.Fatal("no off-grid snapshots")
	}
	snap := offGrid.Snapshots[len(offGrid.Snapshots)/2]
	mkPlan := func() *Plan {
		return &Plan{FirstCand: snap.Candidates(false) + 100, MaxFlips: 1, SameReg: true,
			PinnedBit: -1, Rng: xrand.ForExperiment(3, 4)}
	}
	want, err := Run(p, Options{Plan: mkPlan()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(p, Options{Plan: mkPlan(), Resume: snap, Trace: golden.Trace})
	if err != nil {
		t.Fatal(err)
	}
	if got.Converged {
		t.Error("off-grid resume reported convergence")
	}
	sameResult(t, "off-grid resume", got, want)
}
