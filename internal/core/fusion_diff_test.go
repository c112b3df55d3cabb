package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// TestCampaignFusionDifferential enforces the dispatch tentpole's
// invariant at campaign scale: for every workload, both techniques and
// several fault models, a campaign executed with superinstruction fusion
// disabled produces experiment records bit-identical to the default
// fused campaign — the fused interpreter accounts candidate slots,
// dynamic counts and injection points exactly like its unfused
// expansion.
func TestCampaignFusionDifferential(t *testing.T) {
	const (
		n    = 40
		seed = 54321
	)
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		target, err := core.NewTarget(bench.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		unfusedT, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierFuse})
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range core.Techniques() {
			for _, cfg := range []core.Config{
				core.SingleBit(),
				{MaxMBF: 4, Win: core.Win(0)},
				{MaxMBF: 3, Win: core.Win(10)},
			} {
				eng := func(tg *core.Target) *core.Engine {
					return &core.Engine{
						Target: tg,
						Model: &core.RegisterModel{Spec: &core.CampaignSpec{
							Technique: tech,
							Config:    cfg,
						}},
						N:      n,
						Seed:   seed,
						Record: true,
					}
				}
				fused, err := eng(target).Run()
				if err != nil {
					t.Fatalf("%s %s %s: %v", bench.Name, tech, cfg, err)
				}
				unfused, err := eng(unfusedT).Run()
				if err != nil {
					t.Fatalf("%s %s %s (nofusion): %v", bench.Name, tech, cfg, err)
				}
				if !reflect.DeepEqual(fused.Experiments, unfused.Experiments) {
					t.Errorf("%s %s %s: experiments diverge between fused and unfused campaigns",
						bench.Name, tech, cfg)
					continue
				}
				if fused.Counts != unfused.Counts || fused.TrapCounts != unfused.TrapCounts ||
					fused.CrashActivated != unfused.CrashActivated ||
					fused.ActivatedTotal != unfused.ActivatedTotal {
					t.Errorf("%s %s %s: aggregates diverge between fused and unfused campaigns",
						bench.Name, tech, cfg)
				}
			}
		}
	}
}

// TestTargetFusionDifferential checks that target preparation is fusion
// invariant: profiling a workload with the unfused interpreter yields the
// same golden output, candidate-space sizes and snapshot placement as the
// default fused profile, and campaigns may mix targets and experiment
// dispatch freely.
func TestTargetFusionDifferential(t *testing.T) {
	bench, err := prog.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	fusedT, err := core.NewTarget(bench.Name, p)
	if err != nil {
		t.Fatal(err)
	}
	unfusedT, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierFuse})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fusedT.Golden, unfusedT.Golden) {
		t.Fatal("golden outputs diverge between fused and unfused profiling")
	}
	if fusedT.GoldenDyn != unfusedT.GoldenDyn ||
		fusedT.ReadCands != unfusedT.ReadCands || fusedT.WriteCands != unfusedT.WriteCands ||
		fusedT.ReadRoles != unfusedT.ReadRoles || fusedT.WriteRoles != unfusedT.WriteRoles {
		t.Fatal("profiles diverge between fused and unfused target preparation")
	}
	if len(fusedT.Snapshots) != len(unfusedT.Snapshots) {
		t.Fatalf("snapshot counts diverge: %d vs %d", len(fusedT.Snapshots), len(unfusedT.Snapshots))
	}
	for i := range fusedT.Snapshots {
		if fusedT.Snapshots[i].Dyn != unfusedT.Snapshots[i].Dyn {
			t.Fatalf("snapshot %d placed at dyn %d (fused) vs %d (unfused)",
				i, fusedT.Snapshots[i].Dyn, unfusedT.Snapshots[i].Dyn)
		}
	}
	// Cross: fused experiments resumed from an unfused target's snapshots.
	cross := *fusedT
	cross.Snapshots = unfusedT.Snapshots
	eng := func(tg *core.Target) *core.Engine {
		return &core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.Config{MaxMBF: 2, Win: core.Win(4)},
			}},
			N:      50,
			Seed:   9,
			Record: true,
		}
	}
	crossRes, err := eng(&cross).Run()
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng(fusedT).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crossRes.Experiments, base.Experiments) {
		t.Error("experiments diverge between fused and unfused target snapshots")
	}
}

// TestMemFaultFusionDifferential extends the fusion invariant to the
// memory-fault extension: scheduled memory-word corruptions classify
// identically under fused and unfused dispatch.
func TestMemFaultFusionDifferential(t *testing.T) {
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
	unfusedT, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierFuse})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{1, 3, 8} {
		eng := func(tg *core.Target) *core.Engine {
			return &core.Engine{
				Target: tg,
				Model:  &memfault.Model{Bits: bits},
				N:      60,
				Seed:   7,
				Record: true,
			}
		}
		fused, err := eng(target).Run()
		if err != nil {
			t.Fatal(err)
		}
		unfused, err := eng(unfusedT).Run()
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("bits=%d fused vs unfused", bits),
			fused, unfused, false)
	}
}
