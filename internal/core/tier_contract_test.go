package core_test

// The register and stuck-at campaigns of the tier contract
// (internal/tiercontract), plus its liveness row on memory faults: each
// test holds one speed tier to one fault-model family on every workload.
// internal/memfault holds the other tiers to memory faults.

import (
	"testing"

	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

// tierOn reports whether MULTIFLIP_DISABLE leaves tier on; checks that
// need the tier to run skip themselves otherwise.
func tierOn(tier vm.Tiers) bool { return !vm.EnvDisabled().Has(tier) }

func TestCampaignSnapshotDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierSnapshots, tiercontract.Register)
}

func TestCampaignCompileDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierCompile, tiercontract.Register)
}

func TestCampaignConvergeDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierConverge, tiercontract.Register)
}

func TestCampaignLivenessDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierLiveness, tiercontract.Register)
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

func TestStuckAtLivenessNeutral(t *testing.T) {
	tiercontract.Check(t, vm.TierLiveness, tiercontract.StuckAt)
}

func TestMemFaultLivenessNeutral(t *testing.T) {
	tiercontract.Check(t, vm.TierLiveness, tiercontract.MemFault)
}
