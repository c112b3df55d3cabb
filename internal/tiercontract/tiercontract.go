// Package tiercontract is the differential contract every speed tier
// keeps: a campaign run on a target prepared without the tier records
// exactly what the same campaign records on the default target. The
// contract is one table. Its rows are the vm.Tiers members, each with a
// check that its tier really ran; its cells are the fault-model shapes
// every row runs, grouped by model family. The campaign tests of
// internal/core and internal/memfault each hold one row to one family
// with Check, and SameResult is the comparator they share. A new tier
// joins the contract as one row (and one Check per family), a new fault
// model or shape as one cell.
package tiercontract

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// The model families the cells belong to.
const (
	Register = "register"
	StuckAt  = "stuckat"
	MemFault = "memfault"
)

// tierOn reports whether MULTIFLIP_DISABLE leaves tier on; checks that
// need the tier to run skip themselves otherwise.
func tierOn(tier vm.Tiers) bool { return !vm.EnvDisabled().Has(tier) }

// cell is one campaign every row runs: a fault model, the model family
// it belongs to, and the campaign size.
type cell struct {
	name   string
	family string
	n      int
	model  func() core.FaultModel
}

// cells spans the fault-model shapes that stress the tiers differently:
// the register model under both techniques as single-bit, same-register
// multi-bit (win-size 0) and multi-register windows (fixed and random);
// stuck-at holds of 50 and 100 (the default) instructions; and memory
// faults in every ECC regime: correctable (1 bit), detectable (2) and
// escaping (3, 5, 8).
func cells() []cell {
	var cs []cell
	for _, tech := range core.Techniques() {
		for _, cfg := range []core.Config{
			core.SingleBit(),
			{MaxMBF: 4, Win: core.Win(0)},
			{MaxMBF: 3, Win: core.Win(10)},
			{MaxMBF: 2, Win: core.WinRange(2, 10)},
		} {
			cs = append(cs, cell{fmt.Sprintf("%s %s", tech, cfg), Register, 40, func() core.FaultModel {
				return &core.RegisterModel{Spec: &core.CampaignSpec{Technique: tech, Config: cfg}}
			}})
		}
	}
	for _, win := range []int{50, core.DefaultStuckWindow} {
		cs = append(cs, cell{fmt.Sprintf("stuckat win=%d", win), StuckAt, 60, func() core.FaultModel {
			return &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: core.Win(win)}}
		}})
	}
	for _, bits := range []int{1, 2, 3, 5, 8} {
		cs = append(cs, cell{fmt.Sprintf("memfault bits=%d", bits), MemFault, 120, func() core.FaultModel {
			return &memfault.Model{Bits: bits}
		}})
	}
	return cs
}

// row is one tier of the contract, compared by disabling it.
type row struct {
	tier vm.Tiers
	// converged marks a tier that leaves convergence alone, so
	// SameResult compares Converged too. The converge row decides
	// whether an experiment converges, so it does not.
	converged bool
	// engaged is the row's non-vacuity check on one workload: it returns
	// why the tier is not on in the default target, or "".
	engaged func(p *ir.Program, def, off *core.Target) string
	// fired, when set, counts what the tier did in one campaign. It must
	// be zero on the row's target, and nonzero summed over the default
	// target's campaigns of every family.
	fired func(*core.EngineResult) int
}

var rows = []row{
	{
		tier:      vm.TierSnapshots,
		converged: true,
		engaged: func(_ *ir.Program, def, off *core.Target) string {
			if len(def.Snapshots) == 0 || len(off.Snapshots) != 0 {
				return fmt.Sprintf("snapshots kept: %d by default, %d without the tier", len(def.Snapshots), len(off.Snapshots))
			}
			return ""
		},
	},
	{
		tier:      vm.TierCompile,
		converged: true,
		engaged: func(p *ir.Program, _, _ *core.Target) string {
			if !vm.Compiled(p) {
				return "no compiled kernel engages (re-run go generate ./...)"
			}
			return ""
		},
	},
	{
		tier: vm.TierConverge,
		engaged: func(_ *ir.Program, def, off *core.Target) string {
			if def.Trace == nil || off.Trace != nil {
				return "only the default target may record a golden trace"
			}
			return ""
		},
		fired: func(r *core.EngineResult) int { return r.Converged },
	},
}

// Check holds the row of tier to the cells of family on every workload.
// Per workload it prepares the default target and one without tier,
// requires the two to profile alike and the tier to be engaged on the
// default one, runs each cell on both (on one worker by default, on
// every core without the tier) and compares the pair with SameResult.
// Where the row counts what its tier did, the count must be zero
// without the tier and, summed over the default target's campaigns,
// nonzero.
func Check(t *testing.T, tier vm.Tiers, family string) {
	t.Helper()
	i := slices.IndexFunc(rows, func(r row) bool { return r.tier == tier })
	if i < 0 {
		t.Fatalf("tier %s has no contract row", tier)
	}
	r := rows[i]
	var cs []cell
	for _, c := range cells() {
		if c.family == family {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		t.Fatalf("no contract cell of family %q", family)
	}
	const seed = 12345
	var mu sync.Mutex
	fired := 0
	if r.fired != nil {
		// The workloads run in parallel; Cleanup waits for all of them.
		t.Cleanup(func() {
			if fired == 0 && tierOn(tier) {
				t.Errorf("%s never fired on a %s campaign across the grid", tier, family)
			}
		})
	}
	for _, bench := range prog.All() {
		t.Run(bench.Name, func(t *testing.T) {
			t.Parallel()
			p, err := bench.Build()
			if err != nil {
				t.Fatal(err)
			}
			def, err := core.NewTarget(bench.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			off, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: tier})
			if err != nil {
				t.Fatal(err)
			}
			sameProfile(t, fmt.Sprintf("%s without %s", bench.Name, tier), def, off)
			if r.engaged != nil && tierOn(tier) {
				if why := r.engaged(p, def, off); why != "" {
					t.Errorf("%s: %s row is vacuous: %s", bench.Name, tier, why)
				}
			}
			run := func(label string, tg *core.Target, c cell, workers int) *core.EngineResult {
				res, err := (&core.Engine{Target: tg, Model: c.model(), N: c.n, Seed: seed, Workers: workers, Record: true}).Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res
			}
			for _, c := range cs {
				want := run(bench.Name+" "+c.name, def, c, 1)
				label := fmt.Sprintf("%s %s without %s", bench.Name, c.name, tier)
				got := run(label, off, c, 0)
				SameResult(t, label, want, got, r.converged)
				if r.fired == nil {
					continue
				}
				if n := r.fired(got); n != 0 {
					t.Errorf("%s: %s fired %d times on a target without it", label, tier, n)
				}
				mu.Lock()
				fired += r.fired(want)
				mu.Unlock()
			}
		})
	}
}

// sameProfile fails unless a target prepared without some tier profiles
// exactly like the default one: the golden output, dynamic count and
// candidate spaces feed every campaign's sampling and classification.
// Where both keep snapshots or a golden trace, those must match too.
func sameProfile(t *testing.T, label string, want, got *core.Target) {
	t.Helper()
	if !bytes.Equal(want.Golden, got.Golden) || want.GoldenDyn != got.GoldenDyn ||
		want.ReadCands != got.ReadCands || want.WriteCands != got.WriteCands ||
		want.ReadRoles != got.ReadRoles || want.WriteRoles != got.WriteRoles {
		t.Errorf("%s: golden profile differs", label)
	}
	if len(got.Snapshots) > 0 && !slices.EqualFunc(want.Snapshots, got.Snapshots, func(a, b *vm.Snapshot) bool { return a.Dyn == b.Dyn }) {
		t.Errorf("%s: snapshots placed differently", label)
	}
	if want.Trace != nil && got.Trace != nil && !reflect.DeepEqual(want.Trace, got.Trace) {
		t.Errorf("%s: golden traces differ", label)
	}
}

// SameResult fails the test unless two engine results agree on every
// deterministic field: the per-experiment records, the flat and
// dimensional tallies, the crash, trap and activation histograms, the
// quarantine records and, with wantConverged (for campaigns whose
// convergence is untouched by the difference under test), the
// Converged counter.
func SameResult(t *testing.T, label string, want, got *core.EngineResult, wantConverged bool) {
	t.Helper()
	if want.Counts != got.Counts {
		t.Errorf("%s: tallies differ: %v vs %v", label, want.Counts, got.Counts)
	}
	if want.Tally.Dims != got.Tally.Dims {
		t.Errorf("%s: dimensional tallies differ", label)
	}
	if want.CrashActivated != got.CrashActivated {
		t.Errorf("%s: crash histograms differ", label)
	}
	if want.TrapCounts != got.TrapCounts {
		t.Errorf("%s: trap counts differ", label)
	}
	if want.ActivatedTotal != got.ActivatedTotal {
		t.Errorf("%s: activated totals differ: %d vs %d", label, want.ActivatedTotal, got.ActivatedTotal)
	}
	if wantConverged && want.Converged != got.Converged {
		t.Errorf("%s: converged counts differ: %d vs %d", label, want.Converged, got.Converged)
	}
	if len(want.Experiments) != len(got.Experiments) {
		t.Fatalf("%s: experiment counts differ: %d vs %d", label, len(want.Experiments), len(got.Experiments))
	}
	for i := range want.Experiments {
		if want.Experiments[i] != got.Experiments[i] {
			t.Fatalf("%s: experiment %d differs: %+v vs %+v",
				label, i, want.Experiments[i], got.Experiments[i])
		}
	}
	if len(want.Quarantined) != len(got.Quarantined) {
		t.Fatalf("%s: quarantine counts differ: %d vs %d",
			label, len(want.Quarantined), len(got.Quarantined))
	}
	for i := range want.Quarantined {
		if !reflect.DeepEqual(want.Quarantined[i], got.Quarantined[i]) {
			t.Fatalf("%s: quarantine record %d differs: %+v vs %+v",
				label, i, want.Quarantined[i], got.Quarantined[i])
		}
	}
}
