package memfault_test

import (
	"fmt"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// TestMemFaultConvergeDifferential checks memory-fault campaigns are
// invariant under convergence-gated early termination and memoization:
// corrupted words that are overwritten before being read reconverge with
// the golden run, and the records are bit-identical either way.
func TestMemFaultConvergeDifferential(t *testing.T) {
	earlyExits := 0
	for _, name := range []string{"CRC32", "sha", "histo", "qsort"} {
		bench, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bench.Build()
		if err != nil {
			t.Fatal(err)
		}
		target, err := core.NewTarget(name, p)
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.NewTargetOpts(name, p, core.TargetOptions{Disable: vm.TierConverge})
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range []int{1, 3, 8} {
			eng := func(tg *core.Target) *core.Engine {
				return &core.Engine{
					Target: tg,
					Model:  &memfault.Model{Bits: bits},
					N:      50,
					Seed:   11,
					Record: true,
				}
			}
			fast, err := eng(target).Run()
			if err != nil {
				t.Fatalf("%s bits=%d: %v", name, bits, err)
			}
			slow, err := eng(off).Run()
			if err != nil {
				t.Fatalf("%s bits=%d (noconverge): %v", name, bits, err)
			}
			if slow.Converged != 0 || slow.MemoHits != 0 {
				t.Fatalf("%s bits=%d: converge-disabled campaign reported early exits", name, bits)
			}
			earlyExits += fast.Converged + fast.MemoHits
			sameResult(t, fmt.Sprintf("%s bits=%d converge vs no-converge", name, bits), fast, slow, false)
		}
	}
	if earlyExits == 0 && !vm.EnvDisabled().Has(vm.TierConverge) {
		t.Error("no memory-fault experiment converged or hit the memo; never-read corruptions should")
	}
}

// The concurrent-failure (errors.Join) test moved to the engine seam
// suite in internal/core/engine_test.go: it is an engine property,
// written once against core.Engine and run for all three fault models
// (including this package's Model).
