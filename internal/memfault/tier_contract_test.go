package memfault_test

// The memory-fault campaigns of the tier contract
// (internal/tiercontract): each test holds one speed tier to memory
// faults on every workload.

import (
	"testing"

	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

func TestMemFaultSnapshotDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierSnapshots, tiercontract.MemFault)
}

func TestMemFaultCompileDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierCompile, tiercontract.MemFault)
}

func TestMemFaultConvergeDifferential(t *testing.T) {
	tiercontract.Check(t, vm.TierConverge, tiercontract.MemFault)
}
