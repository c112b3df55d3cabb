package vm

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
)

// Tiers is a set of speed tiers, used as a disable set: the zero value
// leaves every tier on. The tier contract (internal/tiercontract, one
// row per member) proves each bit-identical to running without it, so
// disabling tiers changes how fast campaigns run, never what they
// record. The VM implements
// TierCompile and TierConverge; TierSnapshots belongs to target
// preparation in internal/core. Nothing persists a Tiers value, so the
// bit positions carry no compatibility weight.
type Tiers uint8

// The speed tiers, in the order the -disable flags and MULTIFLIP_DISABLE
// spell them.
const (
	// TierSnapshots fast-forwards experiments from golden-run snapshots
	// instead of replaying the fault-free prefix.
	TierSnapshots Tiers = 1 << iota
	// TierCompile runs the workload's generated native kernel between
	// event horizons instead of the interpreter (sprint).
	TierCompile
	// TierConverge terminates runs whose state reconverges with the
	// golden run's at one of its snapshots.
	TierConverge
)

var tierNames = []string{"snapshots", "compile", "converge"}

// Has reports whether every tier of x is in t.
func (t Tiers) Has(x Tiers) bool { return t&x == x }

// String renders the set as a comma-separated list of tier names.
func (t Tiers) String() string {
	var names []string
	for i, name := range tierNames {
		if t&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// Set implements flag.Value: it adds the tiers named in s.
func (t *Tiers) Set(s string) error {
	add, err := parseTiers(s)
	*t |= add
	return err
}

// parseTiers parses a comma-separated list of tier names ("" is the
// empty set). An unknown name is an error naming the valid ones, so a
// typo cannot silently leave every tier on.
func parseTiers(s string) (Tiers, error) {
	var t Tiers
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.Index(tierNames, name)
		if i < 0 {
			return 0, fmt.Errorf("unknown tier %q (valid: %s)", name, strings.Join(tierNames, ", "))
		}
		t |= 1 << i
	}
	return t, nil
}

// envTiers returns the process-wide disable set from MULTIFLIP_DISABLE,
// parsed on first use. CI's ablation matrix sets it to run the test
// suites with one tier off; a malformed value fails every Run. The read
// happens on first use rather than in a package initializer so that
// `go test`, which logs only the environment reads made while tests run,
// keys its result cache on the variable.
var envTiers = sync.OnceValues(func() (Tiers, error) {
	t, err := parseTiers(os.Getenv("MULTIFLIP_DISABLE"))
	if err != nil {
		return 0, fmt.Errorf("vm: MULTIFLIP_DISABLE: %w", err)
	}
	return t, nil
})

// EnvDisabled returns the process-wide disable set from MULTIFLIP_DISABLE.
// Run adds it to every run's Options.Disable; core.NewTargetOpts adds it
// to the target-level tiers.
func EnvDisabled() Tiers {
	t, _ := envTiers()
	return t
}
