package core

// Stuck-at register faults. The paper's fault model is transient: a bit
// flips once and the corrupted value decays or propagates. Hardware also
// exhibits *persistent* faults — a latch or bitcell stuck at VDD or
// ground — which BEC ("Bit-Level Static Analysis for Reliability against
// Soft Errors", PAPERS.md) treats as a first-class model alongside
// transient flips. This file expresses that class as a third FaultModel
// on the shared experiment engine: one register bit held at a constant 0
// or 1 across every read of the register within a sampled dynamic
// window, rather than XOR-flipped once. Sampling the window start from
// the inject-on-read candidate space (rather than from raw dynamic
// instants) keeps the model liveness-filtered like the register flip
// campaigns: the hold always begins at an actual read of the faulty
// register.

import (
	"fmt"

	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// DefaultStuckWindow is the hold length, in dynamic instructions, used
// when StuckAtSpec.Window is left zero.
const DefaultStuckWindow = 100

// StuckAtSpec parameterizes the stuck-at model (StuckAtModel): how long
// one register bit is held at a constant value. The campaign itself is
// the Engine that runs the model.
type StuckAtSpec struct {
	// Window is the hold length in dynamic instructions, in Table I
	// notation (fixed, or an RND range sampled per experiment). The zero
	// value selects Win(DefaultStuckWindow); note Win(0) IS the zero
	// value, so a zero-length hold is not expressible (it would inject
	// nothing anyway). Front-ends reject an explicit "0".
	Window WinSize
}

// window returns the spec's hold window with the default applied.
func (s *StuckAtSpec) window() WinSize {
	if s.Window == (WinSize{}) {
		return Win(DefaultStuckWindow)
	}
	return s.Window
}

// ParseStuckWindow parses a stuck-at hold window in Table I notation and
// enforces the >= 1 floor. Front-ends use it instead of ParseWinSize
// because Win(0) is StuckAtSpec.Window's zero value: passed through, an
// explicit "0" would silently select the default instead of failing.
func ParseStuckWindow(s string) (WinSize, error) {
	w, err := ParseWinSize(s)
	if err != nil {
		return WinSize{}, err
	}
	if w.Lo < 1 {
		return WinSize{}, fmt.Errorf("core: stuck-at window must be >= 1 instruction, got %q", s)
	}
	return w, nil
}

// StuckAtModel is the stuck-at register fault class expressed as an
// engine FaultModel; a stuck-at campaign is an Engine with this model.
// Experiment.Activated counts the reads whose value the hold actually
// changed, so — unlike single-bit flip campaigns, whose candidates are
// live by construction — it can be zero.
type StuckAtModel struct {
	// Spec supplies the hold window.
	Spec *StuckAtSpec
}

// Prefix implements FaultModel.
func (m *StuckAtModel) Prefix() string { return "stuckat" }

// Describe implements FaultModel.
func (m *StuckAtModel) Describe() string {
	return fmt.Sprintf("stuckat win=%s", m.Spec.window())
}

// Validate implements FaultModel. A zero Lo cannot reach here: the only
// representable zero window is the WinSize zero value, which window()
// already defaulted.
func (m *StuckAtModel) Validate(t *Target, n int) error {
	w := m.Spec.window()
	if err := w.validate(); err != nil {
		return err
	}
	if t.Candidates(InjectOnRead) == 0 {
		return fmt.Errorf("core: target %s has no %s candidates", t.Name, InjectOnRead)
	}
	return nil
}

// Plan implements FaultModel. Draw order per experiment is fixed (anchor
// candidate, stuck value, window length; the bit index follows on the
// same stream at activation time inside the VM), so experiments are
// deterministic per (seed, index) regardless of scheduling.
func (m *StuckAtModel) Plan(t *Target, idx uint64, rng *xrand.Rand) Injection {
	s := m.Spec
	cand := rng.Uint64n(t.Candidates(InjectOnRead))
	high := rng.Intn(2) == 1
	w := s.window()
	win := uint64(w.Lo)
	if w.IsRandom() {
		win = uint64(rng.IntRange(w.Lo, w.Hi))
	}
	plan := &vm.Plan{
		FirstCand:  cand,
		MaxFlips:   1, // unused by stuck plans; kept well-formed
		PinnedBit:  -1,
		Rng:        rng,
		Stuck:      true,
		StuckHigh:  high,
		HoldWindow: win,
	}
	return Injection{Cand: cand, Plan: plan, Resume: t.SnapshotBefore(InjectOnRead, cand)}
}

// Record implements FaultModel.
func (m *StuckAtModel) Record(exp *Experiment, res *vm.Result) {
	RecordFlipMeta(exp, res)
}
