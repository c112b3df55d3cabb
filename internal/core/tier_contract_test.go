package core_test

// The register and stuck-at campaigns of the tier contract
// (internal/tiercontract): each test holds one speed tier to one
// fault-model family on every workload. internal/memfault holds the
// tiers to memory faults.

import (
	"testing"

	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

func TestCampaignSnapshotDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierSnapshots, tiercontract.Register)
}

func TestCampaignCompileDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierCompile, tiercontract.Register)
}

func TestCampaignConvergeDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierConverge, tiercontract.Register)
}

func TestStuckAtSnapshotDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierSnapshots, tiercontract.StuckAt)
}

func TestStuckAtCompileDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierCompile, tiercontract.StuckAt)
}

func TestStuckAtConvergeDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierConverge, tiercontract.StuckAt)
}
