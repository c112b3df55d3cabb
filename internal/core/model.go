// Package core implements the paper's primary contribution: a fault model
// for single and multiple bit-flip errors over two injection techniques,
// the (max-MBF, win-size) error-space clustering of §III-C, experiment
// outcome classification (§III-E), and a parallel, deterministic campaign
// runner.
//
// # Golden-run fast-forwarding
//
// Target preparation (NewTarget) records vm.Snapshots of the golden run
// every DefaultSnapshotInterval dynamic instructions. Each campaign
// experiment then resumes from the latest snapshot whose candidate
// counter (read slots for inject-on-read, register writes for
// inject-on-write) does not exceed the experiment's first injection
// candidate, skipping the fault-free prefix instead of re-executing it.
// The prefix is deterministic and consumes none of the experiment's
// random stream — randomness is derived from (Seed, experiment index)
// only — so campaign results are bit-identical for any worker count and
// any checkpoint interval, including none (vm.TierSnapshots disabled); the
// tier contract (internal/tiercontract) and the interval-invariance tests
// in snapshot_diff_test.go enforce this. For uniformly
// drawn candidates the skipped prefix averages half the golden run, the
// overhead checkpoint-based fault injectors exist to eliminate. Snapshots
// record page-granular deltas (see internal/vm), so targets checkpoint
// densely: capture cost tracks the pages dirtied per interval.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"multiflip/internal/xrand"
)

// Technique is the fault-injection technique (§III-A).
type Technique int

// Techniques.
const (
	// InjectOnRead flips bits of a source register just before an
	// instruction reads it (§III-A1).
	InjectOnRead Technique = iota + 1
	// InjectOnWrite flips bits of a destination register just after an
	// instruction writes it (§III-A2).
	InjectOnWrite
)

// Techniques lists both techniques in paper order.
func Techniques() []Technique { return []Technique{InjectOnRead, InjectOnWrite} }

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case InjectOnRead:
		return "inject-on-read"
	case InjectOnWrite:
		return "inject-on-write"
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// WinSize is the dynamic window size between consecutive injections
// (§III-C): the number of dynamic instructions separating them. Lo == Hi
// denotes a fixed window; Lo < Hi denotes the paper's RND(α, β) windows,
// sampled uniformly per injection.
type WinSize struct {
	Lo, Hi int
}

// Win returns a fixed window of n dynamic instructions.
func Win(n int) WinSize { return WinSize{Lo: n, Hi: n} }

// WinRange returns a RND(lo, hi) window.
func WinRange(lo, hi int) WinSize { return WinSize{Lo: lo, Hi: hi} }

// IsZero reports the same-register cluster (win-size = 0).
func (w WinSize) IsZero() bool { return w.Lo == 0 && w.Hi == 0 }

// IsRandom reports a RND(α, β) window.
func (w WinSize) IsRandom() bool { return w.Lo != w.Hi }

// String renders Table I notation: "0", "100", "RND(2-10)".
func (w WinSize) String() string {
	if w.IsRandom() {
		return fmt.Sprintf("RND(%d-%d)", w.Lo, w.Hi)
	}
	return fmt.Sprintf("%d", w.Lo)
}

// ParseWinSize parses Table I window notation: "0", "4", "1000" (fixed)
// or "2-10", "101-1000" (RND ranges). Shared by the cmd front-ends.
func ParseWinSize(s string) (WinSize, error) {
	s = strings.TrimSpace(s)
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		l, err1 := strconv.Atoi(lo)
		h, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || l < 1 || h < l {
			return WinSize{}, fmt.Errorf("core: bad win range %q", s)
		}
		return WinRange(l, h), nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return WinSize{}, fmt.Errorf("core: bad win value %q", s)
	}
	return Win(v), nil
}

// Sampler returns the per-injection distance sampler used by multi-register
// plans. It panics for the zero window, which has no follow-up distances.
func (w WinSize) Sampler() func(*xrand.Rand) uint64 {
	if w.IsZero() {
		panic("core: zero window has no distance sampler")
	}
	if !w.IsRandom() {
		n := uint64(w.Lo)
		return func(*xrand.Rand) uint64 { return n }
	}
	lo, hi := w.Lo, w.Hi
	return func(r *xrand.Rand) uint64 { return uint64(r.IntRange(lo, hi)) }
}

// validate checks Table I constraints.
func (w WinSize) validate() error {
	if w.Lo < 0 || w.Hi < w.Lo {
		return fmt.Errorf("core: invalid win-size %+v", w)
	}
	if w.IsRandom() && w.Lo < 1 {
		return fmt.Errorf("core: random win-size must start at >= 1, got %v", w)
	}
	return nil
}

// StandardMaxMBF returns Table I's max-MBF values m1..m10.
func StandardMaxMBF() []int { return []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 30} }

// StandardWinSizes returns Table I's win-size values w1..w9.
func StandardWinSizes() []WinSize {
	return []WinSize{
		Win(0), Win(1), Win(4), WinRange(2, 10), Win(10),
		WinRange(11, 100), Win(100), WinRange(101, 1000), Win(1000),
	}
}

// Config is one error-space cluster: the paper's (max-MBF, win-size) pair.
// MaxMBF = 1 is the single bit-flip model (win-size is then irrelevant).
type Config struct {
	// MaxMBF is the maximum number of bit-flip errors injected in one run.
	// The actual (activated) count can be smaller if the run ends first.
	MaxMBF int
	// Win is the dynamic window size between consecutive injections.
	Win WinSize
}

// SingleBit returns the single bit-flip model's configuration.
func SingleBit() Config { return Config{MaxMBF: 1, Win: Win(0)} }

// IsSingle reports whether this is the single bit-flip model.
func (c Config) IsSingle() bool { return c.MaxMBF == 1 }

// String implements fmt.Stringer.
func (c Config) String() string {
	if c.IsSingle() {
		return "single-bit"
	}
	return fmt.Sprintf("mbf=%d win=%s", c.MaxMBF, c.Win)
}

func (c Config) validate() error {
	if c.MaxMBF < 1 {
		return fmt.Errorf("core: MaxMBF must be >= 1, got %d", c.MaxMBF)
	}
	return c.Win.validate()
}

// MultiRegisterConfigs enumerates the paper's 90 multi-register clusters
// per technique (10 max-MBF values x 9 win-sizes). Together with the
// single-bit campaign this yields the 91 campaigns per technique, 182 per
// program (§III-E).
func MultiRegisterConfigs() []Config {
	var cfgs []Config
	for _, m := range StandardMaxMBF() {
		for _, w := range StandardWinSizes() {
			cfgs = append(cfgs, Config{MaxMBF: m, Win: w})
		}
	}
	return cfgs
}

// Outcome classifies one experiment (§III-E).
type Outcome int

// Outcome categories.
const (
	// OutcomeBenign: normal termination, output matches the golden run.
	OutcomeBenign Outcome = iota + 1
	// OutcomeException: a hardware exception was raised (segmentation
	// fault, misaligned access, arithmetic error, abort).
	OutcomeException
	// OutcomeHang: the run exceeded its dynamic-instruction budget.
	OutcomeHang
	// OutcomeNoOutput: normal termination but no output was produced.
	OutcomeNoOutput
	// OutcomeSDC: normal termination with incorrect output and no failure
	// indication — silent data corruption.
	OutcomeSDC

	// OutcomeInternal: the experiment itself could not be executed — it
	// failed or panicked at every supervision tier — and was quarantined
	// by the Quarantine failure policy (supervise.go). Not a paper
	// category: Outcomes() excludes it, the study tables never show it
	// unless it occurred, and quarantined experiments say nothing about
	// the workload's resilience (they inflate Tally.N, so percentage
	// statistics on a quarantine-bearing campaign are lower bounds).
	OutcomeInternal

	// NumOutcomes is the number of categories.
	NumOutcomes = 6
)

// Outcomes lists the paper's categories in presentation order.
// OutcomeInternal is deliberately absent: it marks experiments the
// runtime quarantined, not a §III-E classification, and renderers
// surface it separately and only when present.
func Outcomes() []Outcome {
	return []Outcome{OutcomeBenign, OutcomeException, OutcomeHang, OutcomeNoOutput, OutcomeSDC}
}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "Benign"
	case OutcomeException:
		return "HWException"
	case OutcomeHang:
		return "Hang"
	case OutcomeNoOutput:
		return "NoOutput"
	case OutcomeSDC:
		return "SDC"
	case OutcomeInternal:
		return "Internal"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// ContributesToResilience reports whether the category counts toward error
// resilience (everything except SDC, §II-B). Quarantined experiments
// (OutcomeInternal) say nothing about the workload and count toward
// neither side.
func (o Outcome) ContributesToResilience() bool {
	return o != OutcomeSDC && o != OutcomeInternal
}

// IsDetection reports whether the category belongs to the paper's
// aggregated Detection class (HWException + Hang + NoOutput).
func (o Outcome) IsDetection() bool {
	return o == OutcomeException || o == OutcomeHang || o == OutcomeNoOutput
}
