package memfault_test

import (
	"fmt"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

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
		tiercontract.SameResult(t, fmt.Sprintf("variant %d vs full-replay baseline", i), baseline, res, false)
	}
}
