package core_test

// The static-pruning soundness differential: a campaign with the
// liveness tier enabled must produce experiment records bit-identical
// to one where every statically-pruned experiment is forced to execute
// (a target prepared without vm.TierLiveness) — pruning may only change how fast a
// campaign runs and the StaticPruned counter, never what it records.
// The grid covers all workloads, both techniques and the prunable
// cluster shapes; the memfault and stuck-at halves pin that the other
// fault models are untouched by the tier (their models never prune, and
// the oracle built during target preparation must not perturb the
// profile they run on).

import (
	"bytes"
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// livenessOn reports whether MULTIFLIP_DISABLE leaves static pruning on;
// "pruning fires" assertions only hold then.
func livenessOn() bool { return !vm.EnvDisabled().Has(vm.TierLiveness) }

// TestCampaignLivenessDifferential enforces the tentpole invariant at
// campaign scale: for every workload, both techniques and the cluster
// shapes the tier can prune (single-bit, and multi-bit with win-size 0),
// a campaign with static pruning produces experiment records and
// aggregates bit-identical to one that executes everything — and the
// pruning actually fires somewhere across the grid.
func TestCampaignLivenessDifferential(t *testing.T) {
	const (
		n    = 40
		seed = 1717
	)
	configs := []core.Config{
		core.SingleBit(),
		{MaxMBF: 4, Win: core.Win(0)},
	}
	pruned := 0
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		target, err := core.NewTarget(bench.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		executed, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierLiveness})
		if err != nil {
			t.Fatal(err)
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
						N:      n,
						Seed:   seed,
						Record: true,
					}
				}
				fast, err := eng(target).Run()
				if err != nil {
					t.Fatalf("%s %s %s: %v", bench.Name, tech, cfg, err)
				}
				slow, err := eng(executed).Run()
				if err != nil {
					t.Fatalf("%s %s %s (noliveness): %v", bench.Name, tech, cfg, err)
				}
				if slow.StaticPruned != 0 {
					t.Fatalf("%s %s %s: liveness-disabled campaign reported %d pruned experiments",
						bench.Name, tech, cfg, slow.StaticPruned)
				}
				pruned += fast.StaticPruned
				if !reflect.DeepEqual(fast.Experiments, slow.Experiments) {
					t.Errorf("%s %s %s: experiments diverge between pruned and executed campaigns",
						bench.Name, tech, cfg)
					continue
				}
				if fast.Counts != slow.Counts || fast.TrapCounts != slow.TrapCounts ||
					fast.CrashActivated != slow.CrashActivated ||
					fast.ActivatedTotal != slow.ActivatedTotal {
					t.Errorf("%s %s %s: aggregates diverge between pruned and executed campaigns",
						bench.Name, tech, cfg)
				}
			}
		}
	}
	if pruned == 0 && livenessOn() {
		t.Error("no experiment across the grid was statically pruned; the liveness tier never fires")
	}
}

// deadBitsProgram builds a workload whose hot loop writes a register of
// which 63 of 64 bits are provably dead (`and v, 1` immediately masks
// the sum), so a single-bit inject-on-write campaign must statically
// prune a large share of its experiments.
func deadBitsProgram(t *testing.T) *ir.Program {
	t.Helper()
	m := ir.NewModule("deadbits")
	f := m.Func("main", 0)
	f.For(ir.C(0), ir.C(64), func(i ir.Reg) {
		v := f.BinW(ir.W64, ir.OpAdd, i, ir.C(0x1234_5678_9abc))
		w := f.BinW(ir.W64, ir.OpAnd, v, ir.C(1))
		f.Out8(w)
	})
	f.RetVoid()
	return m.MustBuild()
}

// TestLivenessGuaranteedPrune pins the tier on a program constructed to
// prune: most single-bit write experiments land on the masked sum's dead
// bits and must be classified without executing, all of them Benign.
func TestLivenessGuaranteedPrune(t *testing.T) {
	if !livenessOn() {
		t.Skip("MULTIFLIP_DISABLE includes liveness")
	}
	p := deadBitsProgram(t)
	target, err := core.NewTarget("deadbits", p)
	if err != nil {
		t.Fatal(err)
	}
	executed, err := core.NewTargetOpts("deadbits", p, core.TargetOptions{Disable: vm.TierLiveness})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Engine{
		Target: target,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
		}},
		N:      200,
		Seed:   3,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The loop body writes 4+ registers per iteration, one of which has
	// 63/64 dead bits; uniform sampling must hit it often.
	if res.StaticPruned < 10 {
		t.Fatalf("StaticPruned = %d over 200 experiments on a mostly-dead program", res.StaticPruned)
	}
	// Differential on the same synthetic target for good measure.
	slow, err := (&core.Engine{
		Target: executed,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
		}},
		N:      200,
		Seed:   3,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Experiments, slow.Experiments) {
		t.Error("experiments diverge between pruned and executed campaigns on the synthetic target")
	}
}

// TestTargetLivenessNeutral checks that building the liveness oracle
// during target preparation does not perturb the profile: golden output,
// dynamic count, candidate spaces, role decomposition and snapshot
// placement are bit-identical with the tier on and off.
func TestTargetLivenessNeutral(t *testing.T) {
	bench, err := prog.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	on, err := core.NewTarget(bench.Name, p)
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierLiveness})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(on.Golden, off.Golden) {
		t.Fatal("golden outputs diverge between liveness and no-liveness profiling")
	}
	if on.GoldenDyn != off.GoldenDyn ||
		on.ReadCands != off.ReadCands || on.WriteCands != off.WriteCands ||
		on.ReadRoles != off.ReadRoles || on.WriteRoles != off.WriteRoles {
		t.Fatal("profiles diverge between liveness and no-liveness target preparation")
	}
	if len(on.Snapshots) != len(off.Snapshots) {
		t.Fatalf("snapshot counts diverge: %d vs %d", len(on.Snapshots), len(off.Snapshots))
	}
	for i := range on.Snapshots {
		if on.Snapshots[i].Dyn != off.Snapshots[i].Dyn {
			t.Fatalf("snapshot %d placed at dyn %d (liveness) vs %d (no-liveness)",
				i, on.Snapshots[i].Dyn, off.Snapshots[i].Dyn)
		}
	}
}

// TestMemFaultLivenessNeutral extends the invariant to the memory-fault
// model, which never prunes: campaigns on an oracle-carrying target and
// on a liveness-disabled target classify identically for every workload.
func TestMemFaultLivenessNeutral(t *testing.T) {
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		on, err := core.NewTarget(bench.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierLiveness})
		if err != nil {
			t.Fatal(err)
		}
		eng := func(tg *core.Target) *core.Engine {
			return &core.Engine{
				Target: tg,
				Model:  &memfault.Model{Bits: 2},
				N:      30,
				Seed:   11,
				Record: true,
			}
		}
		a, err := eng(on).Run()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		b, err := eng(off).Run()
		if err != nil {
			t.Fatalf("%s (noliveness): %v", bench.Name, err)
		}
		sameResult(t, bench.Name+" memfault liveness vs no-liveness", a, b, false)
	}
}

// TestStuckAtLivenessNeutral does the same for stuck-at campaigns: the
// model's forced holds depend on dynamic state, so the tier never prunes
// them and their records must be identical either way.
func TestStuckAtLivenessNeutral(t *testing.T) {
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		on, err := core.NewTarget(bench.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierLiveness})
		if err != nil {
			t.Fatal(err)
		}
		eng := func(tg *core.Target) *core.Engine {
			return &core.Engine{
				Target: tg,
				Model:  &core.StuckAtModel{Spec: &core.StuckAtSpec{}},
				N:      30,
				Seed:   13,
				Record: true,
			}
		}
		a, err := eng(on).Run()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		b, err := eng(off).Run()
		if err != nil {
			t.Fatalf("%s (noliveness): %v", bench.Name, err)
		}
		if a.StaticPruned != 0 || b.StaticPruned != 0 {
			t.Fatalf("%s: stuck-at campaign reported static pruning", bench.Name)
		}
		if !reflect.DeepEqual(a.Experiments, b.Experiments) || a.Counts != b.Counts {
			t.Errorf("%s: stuck-at experiments diverge between liveness and no-liveness targets", bench.Name)
		}
	}
}
