package memfault_test

// The memory-fault leg of the compiled-tier differential suite: campaigns
// executed on the VM's generated native kernels must be bit-identical to
// compile-disabled campaigns through the interpreter — per-experiment
// records, tallies, histograms and (with Workers=1) the early-exit
// counters alike. The
// register and stuck-at legs live in internal/core, the VM-level suite in
// internal/vm.

import (
	"fmt"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

func TestMemFaultCompileDifferential(t *testing.T) {
	for _, name := range []string{"CRC32", "sha", "histo", "qsort"} {
		bench, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bench.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !vm.EnvDisabled().Has(vm.TierCompile) && !vm.Compiled(p) {
			t.Fatalf("%s: no compiled kernel engages; the differential below would compare the interpreter against itself (re-run go generate ./...)", name)
		}
		target, err := core.NewTarget(name, p)
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.NewTargetOpts(name, p, core.TargetOptions{Disable: vm.TierCompile})
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range []int{1, 3, 8} {
			eng := func(tg *core.Target) *core.Engine {
				return &core.Engine{
					Target:  tg,
					Model:   &memfault.Model{Bits: bits},
					N:       50,
					Seed:    23,
					Workers: 1,
					Record:  true,
				}
			}
			fast, err := eng(target).Run()
			if err != nil {
				t.Fatalf("%s bits=%d: %v", name, bits, err)
			}
			slow, err := eng(off).Run()
			if err != nil {
				t.Fatalf("%s bits=%d (nocompile): %v", name, bits, err)
			}
			sameResult(t, fmt.Sprintf("%s bits=%d compiled vs nocompile", name, bits), fast, slow, true)
		}
	}
}
