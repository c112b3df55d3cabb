package core

import (
	"fmt"

	"multiflip/internal/ir"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// DefaultHangFactor multiplies the fault-free dynamic instruction count to
// form the hang budget. The paper's LLFI timeout is one to two orders of
// magnitude above the fault-free execution time (§III-E).
const DefaultHangFactor = 10

// ActivatedCap bounds the activated-error histogram; the paper's largest
// max-MBF is 30.
const ActivatedCap = 31

// NumTrapKinds sizes the per-trap-kind exception counters (vm.TrapKind
// values are dense, starting at TrapNone = 0).
const NumTrapKinds = int(vm.TrapStackOverflow) + 1

// Pin forces an experiment's first injection: the candidate index and bit
// of an earlier (usually single-bit) experiment. Used by the §IV-C3
// transition study, which starts each multi-bit experiment at the exact
// location of a single-bit experiment.
type Pin struct {
	Cand uint64
	Bit  int
}

// Experiment records one fault-injection experiment. The first-flip
// metadata (Bit, Dir, Role) is uniform across fault models: the VM
// surfaces it from plan execution, so register flips, memory-word
// flips and stuck-at holds all report it identically.
type Experiment struct {
	// Cand is the first injection's candidate-space index.
	Cand uint64
	// Bit is the first injection's bit index within its register (or
	// memory word), or -1 when the first injection flipped several bits
	// at once or never happened.
	Bit int
	// Dir is the first flip's direction (0→1 or 1→0), from the pre-flip
	// bit value; DirUnknown when Bit is unknown or — for stuck-at holds
	// — no forced read ever changed a value.
	Dir FlipDir
	// Role is the ir.SlotRole of the first injection's target
	// (ir.RoleNone when no injection occurred).
	Role ir.SlotRole
	// Outcome is the §III-E classification.
	Outcome Outcome
	// Trap is the hardware-exception kind for OutcomeException runs
	// (vm.TrapNone otherwise).
	Trap vm.TrapKind
	// Activated is the number of bit flips actually performed before the
	// run ended.
	Activated int
}

// RecordFlipMeta fills an experiment's uniform first-flip metadata from
// the raw run result; every fault model's Record calls it so the three
// models report bit position, direction and role identically.
func RecordFlipMeta(exp *Experiment, res *vm.Result) {
	exp.Bit = res.FirstBit
	exp.Dir = DirFromPre(res.FirstPre)
	exp.Role = res.FirstRole
	exp.Activated = res.Injected
}

// CampaignSpec parameterizes the paper's register fault model
// (RegisterModel, §III-A and §III-C): the technique, the error cluster
// and optional pins. The campaign itself — target, N, seed, workers,
// classifier, journal — is the Engine that runs the model.
type CampaignSpec struct {
	// Target is ignored: the Engine carries the target.
	//
	// Deprecated: set Engine.Target instead.
	Target *Target
	// Technique selects inject-on-read or inject-on-write.
	Technique Technique
	// Config is the (max-MBF, win-size) cluster; MaxMBF = 1 for the
	// single bit-flip model.
	Config Config
	// Pins, when non-empty, forces experiment i's first injection to
	// Pins[i]; the Engine's N must then be len(Pins).
	Pins []Pin
}

// CampaignResult is a register campaign's result next to the model
// parameters it ran with, for renderers that group campaigns by
// cluster.
type CampaignResult struct {
	// Spec holds the campaign's technique, cluster and pins.
	Spec CampaignSpec
	// EngineResult holds the outcome tally, the activated-error and
	// trap-kind histograms, the early-exit counters and (when
	// Engine.Record was set) the per-experiment records.
	EngineResult
}

// RegisterModel is the paper's register bit-flip fault model expressed as
// an engine FaultModel: single or multiple bit flips injected into the
// registers an instruction reads (inject-on-read) or writes
// (inject-on-write), clustered by (max-MBF, win-size). A register
// campaign is an Engine with this model.
type RegisterModel struct {
	// Spec supplies the technique, the error cluster and the optional
	// pins.
	Spec *CampaignSpec
}

// Prefix implements FaultModel.
func (m *RegisterModel) Prefix() string { return "core" }

// Describe implements FaultModel: the register model's full
// parameterization for the campaign fingerprint. Pinned campaigns fold a
// digest of the pin list — two campaigns with different pins plan
// different experiments.
func (m *RegisterModel) Describe() string {
	s := m.Spec
	d := fmt.Sprintf("register tech=%s mbf=%d win=%s", s.Technique, s.Config.MaxMBF, s.Config.Win)
	if len(s.Pins) > 0 {
		h := uint64(0)
		for _, p := range s.Pins {
			h = mix(h, p.Cand)
			h = mix(h, uint64(int64(p.Bit)))
		}
		d += fmt.Sprintf(" pins=%d:%016x", len(s.Pins), h)
	}
	return d
}

// Validate implements FaultModel.
func (m *RegisterModel) Validate(t *Target, n int) error {
	s := m.Spec
	if s.Technique != InjectOnRead && s.Technique != InjectOnWrite {
		return fmt.Errorf("core: invalid technique %d", int(s.Technique))
	}
	if err := s.Config.validate(); err != nil {
		return err
	}
	if t.Candidates(s.Technique) == 0 {
		return fmt.Errorf("core: target %s has no %s candidates", t.Name, s.Technique)
	}
	// Pinned campaigns run exactly one experiment per pin; an engine N
	// past the pin list would index out of range inside a worker.
	if len(s.Pins) > 0 && n != len(s.Pins) {
		return fmt.Errorf("core: pinned campaign needs N == len(Pins): %d vs %d", n, len(s.Pins))
	}
	return nil
}

// Plan implements FaultModel: the first flip lands on a uniformly drawn
// (or pinned) candidate, follow-up flips follow the cluster's window
// sampler, and the experiment fast-forwards from the latest golden-run
// snapshot preceding the first candidate. The prefix is deterministic
// and consumes no randomness, so the outcome is bit-identical to a full
// replay.
func (m *RegisterModel) Plan(t *Target, idx uint64, rng *xrand.Rand) Injection {
	s := m.Spec
	var cand uint64
	pinnedBit := -1
	if len(s.Pins) > 0 {
		pin := &s.Pins[idx]
		cand = pin.Cand
		pinnedBit = pin.Bit
	} else {
		cand = rng.Uint64n(t.Candidates(s.Technique))
	}
	plan := &vm.Plan{
		OnWrite:   s.Technique == InjectOnWrite,
		FirstCand: cand,
		MaxFlips:  s.Config.MaxMBF,
		PinnedBit: pinnedBit,
		Rng:       rng,
	}
	switch {
	case s.Config.IsSingle():
		plan.SameReg = true // one flip; mode is irrelevant but cheapest
	case s.Config.Win.IsZero():
		plan.SameReg = true
	default:
		plan.NextWindow = s.Config.Win.Sampler()
	}
	return Injection{Cand: cand, Plan: plan, Resume: t.SnapshotBefore(s.Technique, cand)}
}

// Record implements FaultModel.
func (m *RegisterModel) Record(exp *Experiment, res *vm.Result) {
	RecordFlipMeta(exp, res)
}
