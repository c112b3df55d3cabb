package core_test

import (
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// TestCampaignMemoHit pins the fault-equivalence memo: two experiments
// pinned to the same first-injection location collapse to the same
// post-injection state, so the second reuses the first's recorded outcome
// (Workers=1 makes the order deterministic) and the records stay
// bit-identical to a memo-less campaign.
func TestCampaignMemoHit(t *testing.T) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	target, err := core.NewTarget(bench.Name, p)
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierConverge})
	if err != nil {
		t.Fatal(err)
	}
	// Find an SDC location: its post-injection state diverges from golden,
	// so the memo (not convergence) resolves the duplicate.
	probe, err := (&core.Engine{
		Target: target,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
		}},
		N:      60,
		Seed:   7,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	var pin core.Pin
	found := false
	for _, e := range probe.Experiments {
		if e.Outcome == core.OutcomeSDC {
			pin = core.Pin{Cand: e.Cand, Bit: e.Bit}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no SDC experiment in the probe campaign")
	}
	eng := func(tg *core.Target) *core.Engine {
		return &core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite,
				Config:    core.SingleBit(),
				Pins:      []core.Pin{pin, pin},
			}},
			N:       2,
			Seed:    8,
			Workers: 1,
			Record:  true,
		}
	}
	res, err := eng(target).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits != 1 && tierOn(vm.TierConverge) {
		t.Errorf("pinned duplicate campaign reported %d memo hits, want 1", res.MemoHits)
	}
	if !reflect.DeepEqual(res.Experiments[0], res.Experiments[1]) {
		t.Errorf("memoized experiment diverges from its twin: %+v vs %+v",
			res.Experiments[0], res.Experiments[1])
	}
	slow, err := eng(off).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Experiments, slow.Experiments) {
		t.Error("memoized experiments diverge from the no-converge rerun")
	}
}

// The concurrent-failure (errors.Join) and memo-determinism tests moved
// to engine_test.go: they are engine properties, written once against
// core.Engine and run for all three fault models.
