package core_test

// Liveness-tier tests beyond the tier contract (internal/tiercontract):
// a program built so that pruning must fire. That a target prepared with
// the liveness oracle profiles exactly like one prepared without it is
// the contract's own check (sameProfile, on all 15 workloads).

import (
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/vm"
)

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
	if !tierOn(vm.TierLiveness) {
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
