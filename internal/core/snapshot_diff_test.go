package core_test

import (
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// TestCampaignSnapshotIntervalInvariance checks that results do not depend
// on where checkpoints happen to fall: targets prepared with very
// different snapshot intervals (and the snapshot-free target) all yield
// the same experiments.
func TestCampaignSnapshotIntervalInvariance(t *testing.T) {
	const (
		n    = 60
		seed = 777
	)
	bench, err := prog.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	variants := []core.TargetOptions{
		{Disable: vm.TierSnapshots},
		{SnapshotInterval: 17, MaxSnapshots: 4}, // tiny interval, heavy thinning
		{SnapshotInterval: 500},
		{SnapshotInterval: 1 << 30}, // beyond the golden run: no snapshots land
	}
	baseline := make(map[core.Technique]*core.EngineResult)
	for i, topts := range variants {
		target, err := core.NewTargetOpts(bench.Name, p, topts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range core.Techniques() {
			res, err := (&core.Engine{
				Target: target,
				Model: &core.RegisterModel{Spec: &core.CampaignSpec{
					Technique: tech,
					Config:    core.Config{MaxMBF: 3, Win: core.Win(4)},
				}},
				N:      n,
				Seed:   seed + uint64(tech),
				Record: true,
			}).Run()
			if err != nil {
				t.Fatalf("variant %d %s: %v", i, tech, err)
			}
			if i == 0 {
				baseline[tech] = res
				continue
			}
			if !reflect.DeepEqual(res.Experiments, baseline[tech].Experiments) {
				t.Errorf("variant %d %s: experiments differ from full-replay baseline", i, tech)
			}
		}
	}
}

// TestPinnedCampaignSnapshotDifferential covers the §IV-C3 rerun path:
// pinned experiments (exact candidate + bit of an earlier single-bit run)
// must also be invariant under fast-forwarding.
func TestPinnedCampaignSnapshotDifferential(t *testing.T) {
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
	replay, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: vm.TierSnapshots})
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&core.Engine{
		Target: target,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
		}},
		N:      50,
		Seed:   3,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pins := make([]core.Pin, len(single.Experiments))
	for i, e := range single.Experiments {
		pins[i] = core.Pin{Cand: e.Cand, Bit: e.Bit}
	}
	eng := func(tg *core.Target) *core.Engine {
		return &core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite,
				Config:    core.Config{MaxMBF: 3, Win: core.Win(1)},
				Pins:      pins,
			}},
			N:      len(pins),
			Seed:   4,
			Record: true,
		}
	}
	fast, err := eng(target).Run()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := eng(replay).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.Experiments, slow.Experiments) {
		t.Error("pinned experiments diverge between snapshot and full-replay campaigns")
	}
}

// buildWideGlobalProg returns a synthetic workload with a 64 KiB global
// segment whose stores hit pages all over it, so snapshot deltas, base
// chains and resume work at a scale well past the suite programs'.
func buildWideGlobalProg(t *testing.T) *ir.Program {
	t.Helper()
	const words = 1 << 13
	mb := ir.NewModule("wide-globals")
	base := mb.GlobalZero(8 * words)
	f := mb.Func("main", 0)
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(3000), func(i ir.Reg) {
		w := f.BinW(ir.W64, ir.OpAnd, f.BinW(ir.W64, ir.OpMul, i, ir.C(2654435761)), ir.C(words-1))
		addr := f.BinW(ir.W64, ir.OpAdd, ir.C(base), f.BinW(ir.W64, ir.OpMul, w, ir.C(8)))
		f.Store64(addr, f.BinW(ir.W64, ir.OpAdd, i, ir.C(0x1234)), 0)
		f.Mov(acc, f.BinW(ir.W64, ir.OpXor, acc, f.Load64(addr, 0)))
	})
	f.Out64(acc)
	f.RetVoid()
	p, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCampaignSnapshotDifferentialLargeGlobals extends the differential
// invariant to page-granular snapshots at scale: a 64 KiB-global
// workload, prepared at three checkpoint settings, must produce
// experiment records bit-identical to full replay for both techniques.
func TestCampaignSnapshotDifferentialLargeGlobals(t *testing.T) {
	p := buildWideGlobalProg(t)
	replay, err := core.NewTargetOpts("wide-globals", p, core.TargetOptions{Disable: vm.TierSnapshots})
	if err != nil {
		t.Fatal(err)
	}
	for _, topts := range []core.TargetOptions{
		{},                                      // default (dense) interval
		{SnapshotInterval: 32},                  // denser: longer sharing chains
		{SnapshotInterval: 17, MaxSnapshots: 8}, // heavy thinning
	} {
		target, err := core.NewTargetOpts("wide-globals", p, topts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range core.Techniques() {
			for _, cfg := range []core.Config{core.SingleBit(), {MaxMBF: 3, Win: core.Win(10)}} {
				eng := func(tg *core.Target) *core.Engine {
					return &core.Engine{
						Target: tg,
						Model: &core.RegisterModel{Spec: &core.CampaignSpec{
							Technique: tech,
							Config:    cfg,
						}},
						N:      30,
						Seed:   99,
						Record: true,
					}
				}
				fast, err := eng(target).Run()
				if err != nil {
					t.Fatal(err)
				}
				slow, err := eng(replay).Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fast.Experiments, slow.Experiments) {
					t.Errorf("interval=%d %s %s: experiments diverge between snapshot and full-replay campaigns",
						topts.SnapshotInterval, tech, cfg)
				}
			}
		}
	}
}
