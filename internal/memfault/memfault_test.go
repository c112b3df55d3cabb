package memfault_test

import (
	"strings"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
)

// target builds and profiles a benchmark with every tier on.
func target(t *testing.T, name string) *core.Target {
	t.Helper()
	b, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := core.NewTarget(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return tg
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
