package vm

import (
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// TestArmedPlanStepsOnlyAtInjections is the injection horizon's
// non-vacuity check: an armed plan runs the fast tiers between its
// injection points, so it takes only a few observer steps per flip.
// Stepping every instruction from the start to the last flip, as a plan
// without a horizon does, takes hundreds per flip on these wide windows
// (the paper's max-MBF 30, RND 101-1000). Every run must also match its
// stepped reference, and the reference's step count proves the counter
// counts.
func TestArmedPlanStepsOnlyAtInjections(t *testing.T) {
	rnd := func(r *xrand.Rand) uint64 { return 101 + uint64(r.Intn(900)) }
	for _, name := range []string{"CRC32", "sha", "FFT"} {
		b, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		golden, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, onWrite := range []bool{false, true} {
			space := golden.ReadSlots
			if onWrite {
				space = golden.Writes
			}
			var injected, steps uint64
			for e := uint64(0); e < 8; e++ {
				mkPlan := func() *Plan {
					return &Plan{
						OnWrite:    onWrite,
						FirstCand:  space * e / 8,
						MaxFlips:   30,
						PinnedBit:  -1,
						NextWindow: rnd,
						Rng:        xrand.ForExperiment(17, e),
					}
				}
				opts := Options{MaxDyn: 4*golden.Dyn + 1000, Plan: mkPlan()}
				res, err := Run(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Injected == 0 {
					t.Fatalf("%s onWrite=%v experiment %d injected nothing", name, onWrite, e)
				}
				if bound := 8 * uint64(res.Injected+1); res.steps > bound {
					t.Errorf("%s onWrite=%v experiment %d: %d observer steps for %d flips, want at most %d",
						name, onWrite, e, res.steps, res.Injected, bound)
				}
				injected += uint64(res.Injected)
				steps += res.steps

				opts.Plan = mkPlan()
				opts.CountRoles = true
				ref, err := Run(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameStepped(t, name+" plan vs stepped", res, ref)
				if ref.steps != ref.Dyn {
					t.Fatalf("%s: stepped reference took %d observer steps over %d instructions", name, ref.steps, ref.Dyn)
				}
			}
			t.Logf("%s onWrite=%v: %d observer steps for %d flips (MaxNR %d)", name, onWrite, steps, injected, p.MaxNR())
		}
	}
}

// TestHorizonWithoutReads covers the inject-on-read horizon's one guard:
// a program that reads no register has MaxNR 0, so the horizon cannot
// divide by it and the plan steps, landing nothing, like its stepped
// reference.
func TestHorizonWithoutReads(t *testing.T) {
	mb := ir.NewModule("noreads")
	f := mb.Func("main", 0)
	f.Out32(ir.C(5))
	f.RetVoid()
	p := mb.MustBuild()
	if p.MaxNR() != 0 {
		t.Fatalf("MaxNR = %d, want 0", p.MaxNR())
	}
	for _, stuck := range []bool{false, true} {
		mkPlan := func() *Plan {
			return &Plan{MaxFlips: 1, SameReg: true, PinnedBit: -1, Stuck: stuck, HoldWindow: 4, Rng: xrand.New(1)}
		}
		res, err := Run(p, Options{Plan: mkPlan()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopReturned || res.Injected != 0 {
			t.Fatalf("stuck=%v: stop %s, injected %d; want returned, 0", stuck, res.Stop, res.Injected)
		}
		ref, err := Run(p, Options{Plan: mkPlan(), CountRoles: true})
		if err != nil {
			t.Fatal(err)
		}
		sameStepped(t, "no-reads plan vs stepped", res, ref)
	}
}
