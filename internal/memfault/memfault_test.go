package memfault_test

import (
	"strings"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

func target(t *testing.T, name string) *core.Target { return targetWith(t, name, 0) }

// targetWith is target prepared without the disabled tiers.
func targetWith(t *testing.T, name string, disable vm.Tiers) *core.Target {
	t.Helper()
	b, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := core.NewTargetOpts(name, p, core.TargetOptions{Disable: disable})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// sameResult fails the test unless two campaigns agree on every
// deterministic field: the per-experiment records, the flat and
// dimensional tallies, the trap and crash histograms and (with
// wantEarly, for runs whose early-exit split is deterministic) the
// early-exit counters.
func sameResult(t *testing.T, label string, want, got *core.EngineResult, wantEarly bool) {
	t.Helper()
	if want.Counts != got.Counts || want.Dims != got.Dims {
		t.Errorf("%s: tallies differ: %v vs %v", label, want.Counts, got.Counts)
	}
	if want.TrapCounts != got.TrapCounts || want.CrashActivated != got.CrashActivated ||
		want.ActivatedTotal != got.ActivatedTotal {
		t.Errorf("%s: trap, crash or activation histograms differ", label)
	}
	if wantEarly && (want.Converged != got.Converged || want.MemoHits != got.MemoHits) {
		t.Errorf("%s: early-exit counters differ: conv %d vs %d, memo %d vs %d",
			label, want.Converged, got.Converged, want.MemoHits, got.MemoHits)
	}
	if len(want.Experiments) != len(got.Experiments) {
		t.Fatalf("%s: experiment counts differ: %d vs %d", label, len(want.Experiments), len(got.Experiments))
	}
	for i := range want.Experiments {
		if want.Experiments[i] != got.Experiments[i] {
			t.Fatalf("%s: experiment %d differs: %+v vs %+v", label, i, want.Experiments[i], got.Experiments[i])
		}
	}
}

func TestRunBasic(t *testing.T) {
	tg := target(t, "CRC32")
	res, err := (&core.Engine{
		Target: tg,
		Model:  &memfault.Model{Bits: 3},
		N:      300,
		Seed:   1,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 300 {
		t.Fatalf("N = %d", res.N())
	}
	// The input buffer dominates CRC32's globals and is read once, so
	// corrupting it must produce SDCs (the checksum changes) while flips
	// in already-consumed data stay benign.
	if res.Counts[core.OutcomeSDC] == 0 {
		t.Fatal("no SDCs from memory corruption of a checksummed buffer")
	}
	if res.Counts[core.OutcomeBenign] == 0 {
		t.Fatal("no benign outcomes; memory faults should often be masked")
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	tg := target(t, "histo")
	run := func(workers int) [core.NumOutcomes + 1]int {
		res, err := (&core.Engine{
			Target:  tg,
			Model:   &memfault.Model{Bits: 3},
			N:       200,
			Seed:    9,
			Workers: workers,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts
	}
	if run(1) != run(4) {
		t.Fatal("memory-fault campaign not deterministic across worker counts")
	}
}

func TestMoreBitsNoFewerSDCsOnAverage(t *testing.T) {
	// Not a strict monotonicity law, but across a read-heavy workload a
	// 16-bit word corruption must corrupt output at least as often as a
	// 1-bit corruption within noise; assert a loose ordering.
	tg := target(t, "sha")
	one, err := (&core.Engine{
		Target: tg,
		Model:  &memfault.Model{Bits: 1},
		N:      400,
		Seed:   4,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	many, err := (&core.Engine{
		Target: tg,
		Model:  &memfault.Model{Bits: 16},
		N:      400,
		Seed:   4,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if many.SDCPct()+10 < one.SDCPct() {
		t.Fatalf("16-bit word faults produce far fewer SDCs (%v%%) than 1-bit (%v%%)",
			many.SDCPct(), one.SDCPct())
	}
}

func TestValidation(t *testing.T) {
	tg := target(t, "CRC32")
	bad := []*core.Engine{
		{Model: &memfault.Model{Bits: 3}, N: 10},              // no target
		{Target: tg, Model: &memfault.Model{Bits: 0}, N: 10},  // bits too small
		{Target: tg, Model: &memfault.Model{Bits: 65}, N: 10}, // bits too large
		{Target: tg, Model: &memfault.Model{Bits: 3}, N: 0},   // no N
	}
	for i, e := range bad {
		if _, err := e.Run(); err == nil {
			t.Errorf("campaign %d accepted", i)
		}
	}
}

func TestSweepTable(t *testing.T) {
	tg := target(t, "CRC32")
	tb, err := memfault.SweepTable(tg, []int{1, 2, 3, 8}, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"bits/word", "corrected", "detected", "escapes ECC", "SDC%"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep table missing %q:\n%s", want, out)
		}
	}
}
