package core_test

// The campaign-level compiled-tier differential suite: for every
// workload, both techniques and the single- and multi-bit register
// models — plus the stuck-at model — campaigns executed on the compiled
// fast tier must be bit-identical to compile-disabled campaigns, down to the
// per-experiment records, the outcome and trap histograms and the
// early-exit counters (Workers=1 makes Converged/MemoHits deterministic,
// so they are compared too). The memfault analogue lives in
// internal/memfault; the VM-level suite in internal/vm.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// compileOn reports whether MULTIFLIP_DISABLE leaves the compiled tier
// on; non-vacuity assertions only hold then.
func compileOn() bool { return !vm.EnvDisabled().Has(vm.TierCompile) }

// TestCampaignCompileDifferential pins the compiled tier at the campaign
// level across the full workload grid.
func TestCampaignCompileDifferential(t *testing.T) {
	const (
		n    = 30
		seed = 90125
	)
	configs := []core.Config{
		core.SingleBit(),
		{MaxMBF: 3, Win: core.Win(10)},
	}
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		if compileOn() && !vm.Compiled(p) {
			t.Fatalf("%s: no compiled kernel engages; the differential below would compare the interpreter against itself (re-run go generate ./...)", bench.Name)
		}
		target, err := core.NewTarget(bench.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierCompile})
		if err != nil {
			t.Fatal(err)
		}
		// The golden profile feeds candidate sampling and SDC comparison;
		// both tiers must capture the same one.
		if !bytes.Equal(target.Golden, off.Golden) ||
			target.GoldenDyn != off.GoldenDyn ||
			target.ReadCands != off.ReadCands ||
			target.WriteCands != off.WriteCands {
			t.Fatalf("%s: golden profiles diverge between tiers", bench.Name)
		}
		if !reflect.DeepEqual(target.Trace, off.Trace) {
			t.Fatalf("%s: golden traces diverge between tiers", bench.Name)
		}
		for _, tech := range core.Techniques() {
			for _, cfg := range configs {
				eng := func(tg *core.Target) *core.Engine {
					return &core.Engine{
						Target: tg,
						Model: &core.RegisterModel{Spec: &core.CampaignSpec{
							Technique: tech,
							Config:    cfg,
						}},
						N:       n,
						Seed:    seed,
						Workers: 1,
						Record:  true,
					}
				}
				fast, err := eng(target).Run()
				if err != nil {
					t.Fatalf("%s %s %s: %v", bench.Name, tech, cfg, err)
				}
				slow, err := eng(off).Run()
				if err != nil {
					t.Fatalf("%s %s %s (nocompile): %v", bench.Name, tech, cfg, err)
				}
				sameResult(t, fmt.Sprintf("%s %s %s compiled vs nocompile", bench.Name, tech, cfg),
					fast, slow, true)
			}
		}
	}
}

// TestStuckAtCompileDifferential is the same contract for the stuck-at
// model, whose hold windows exercise the kernels' repeated-read path.
func TestStuckAtCompileDifferential(t *testing.T) {
	for _, name := range []string{"CRC32", "dijkstra"} {
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
		off, err := core.NewTargetOpts(name, p, core.TargetOptions{Disable: vm.TierCompile})
		if err != nil {
			t.Fatal(err)
		}
		eng := func(tg *core.Target) *core.Engine {
			return &core.Engine{
				Target:  tg,
				Model:   &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: core.Win(50)}},
				N:       40,
				Seed:    31,
				Workers: 1,
				Record:  true,
			}
		}
		fast, err := eng(target).Run()
		if err != nil {
			t.Fatal(err)
		}
		slow, err := eng(off).Run()
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, name+" stuckat compiled vs nocompile",
			fast, slow, true)
	}
}
