package memfault_test

import (
	"fmt"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

// diffBits spans the ECC regimes: correctable (1), detectable (2), and
// ECC-escaping (3, 5) per-word flip counts.
var diffBits = []int{1, 2, 3, 5}

// TestMemFaultSnapshotDifferential mirrors core's snapshot_diff_test for
// memory-fault campaigns: for several workloads (including histo, whose
// global segment exceeds the VM's eager-restore bound and so takes the
// lazy copy-on-write resume path) and every ECC regime, a campaign
// fast-forwarded by corruption instant must produce per-experiment
// records bit-identical to a full-replay campaign.
func TestMemFaultSnapshotDifferential(t *testing.T) {
	const (
		n    = 120
		seed = 4242
	)
	for _, name := range []string{"CRC32", "histo", "sha", "qsort"} {
		tg := target(t, name)
		if len(tg.Snapshots) == 0 && !vm.EnvDisabled().Has(vm.TierSnapshots) {
			t.Fatalf("%s: target has no golden-run snapshots", name)
		}
		replay := targetWith(t, name, vm.TierSnapshots)
		for _, bits := range diffBits {
			eng := func(tg *core.Target) *core.Engine {
				return &core.Engine{
					Target: tg,
					Model:  &memfault.Model{Bits: bits},
					N:      n,
					Seed:   seed,
					Record: true,
				}
			}
			fast, err := eng(tg).Run()
			if err != nil {
				t.Fatalf("%s bits=%d: %v", name, bits, err)
			}
			slow, err := eng(replay).Run()
			if err != nil {
				t.Fatalf("%s bits=%d (no snapshots): %v", name, bits, err)
			}
			sameResult(t, fmt.Sprintf("%s bits=%d snapshot vs full replay", name, bits), fast, slow, false)
		}
	}
}

// TestMemFaultSnapshotIntervalInvariance checks that memory-fault results
// do not depend on where checkpoints happen to fall: targets prepared
// with very different snapshot intervals (and the snapshot-free target)
// all yield the same records.
func TestMemFaultSnapshotIntervalInvariance(t *testing.T) {
	const (
		n    = 150
		seed = 7
	)
	b, err := prog.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	variants := []core.TargetOptions{
		{Disable: vm.TierSnapshots},
		{SnapshotInterval: 13, MaxSnapshots: 4}, // tiny interval, heavy thinning
		{SnapshotInterval: 800},
		{SnapshotInterval: 1 << 30}, // beyond the golden run: no snapshots land
	}
	var baseline *core.EngineResult
	for i, topts := range variants {
		tg, err := core.NewTargetOpts("CRC32", p, topts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&core.Engine{
			Target: tg,
			Model:  &memfault.Model{Bits: 3},
			N:      n,
			Seed:   seed,
			Record: true,
		}).Run()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if i == 0 {
			baseline = res
			continue
		}
		sameResult(t, fmt.Sprintf("variant %d vs full-replay baseline", i), baseline, res, false)
	}
}
