package tiercontract

import (
	"slices"
	"testing"

	"multiflip/internal/vm"
)

// TestEveryTierHasRow fails when a vm.Tiers member joins without a row:
// Check could not hold it to the contract.
func TestEveryTierHasRow(t *testing.T) {
	for b := vm.Tiers(1); b != 0; b <<= 1 {
		if b.String() != "" && !slices.ContainsFunc(rows, func(r row) bool { return r.tier == b }) {
			t.Errorf("tier %s has no contract row", b)
		}
	}
}
