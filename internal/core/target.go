package core

import (
	"fmt"
	"sort"

	"multiflip/internal/ir"
	"multiflip/internal/vm"
)

// Target is a workload prepared for fault injection: the program plus its
// fault-free profile (golden output, dynamic instruction count, and the
// candidate-space sizes for both techniques).
type Target struct {
	// Name identifies the workload (Table II program name).
	Name string
	// Prog is the executable program.
	Prog *ir.Program
	// Golden is the fault-free output, the SDC comparison baseline.
	Golden []byte
	// GoldenDyn is the fault-free dynamic instruction count.
	GoldenDyn uint64
	// ReadCands is the inject-on-read candidate-space size (dynamic
	// register-read operand slots).
	ReadCands uint64
	// WriteCands is the inject-on-write candidate-space size (dynamic
	// destination-register writes).
	WriteCands uint64
	// ReadRoles decomposes the inject-on-read candidate space by
	// ir.SlotRole (address/data/control/float/other): the data-type mix
	// the paper uses to explain detection-rate differences (§IV-A).
	ReadRoles [ir.NumSlotRoles]uint64
	// WriteRoles decomposes the inject-on-write candidate space likewise.
	WriteRoles [ir.NumSlotRoles]uint64
	// Snapshots are golden-run checkpoints in ascending dynamic order;
	// the campaign runner resumes experiments from them to skip the
	// fault-free prefix. Empty when TierSnapshots is disabled.
	Snapshots []*vm.Snapshot
	// Trace is the golden run's record, its snapshots and final state:
	// experiments carry it so the VM can terminate them early once their
	// injected state reconverges with the golden run. Nil when
	// TierConverge is disabled.
	Trace *vm.GoldenTrace
	// Disable is the set of speed tiers every campaign on this target
	// runs without: TargetOptions.Disable plus the tiers MULTIFLIP_DISABLE
	// named when the target was prepared. Its converge member is part of
	// the campaign fingerprint, so a journal written with convergence on
	// never resumes into a campaign that runs with it off.
	Disable vm.Tiers
}

// DefaultSnapshotInterval is the golden-run checkpoint spacing in dynamic
// instructions. Snapshot capture records page-granular deltas — cost
// and memory scale with the pages dirtied per interval, not with run
// length or segment size — so targets can afford checkpoints every
// few dozen instructions, shrinking the prefix tail each fast-forwarded
// experiment still replays.
const DefaultSnapshotInterval = 64

// DefaultTargetMaxSnapshots bounds the snapshots a target stores. It is
// deliberately higher than vm.DefaultMaxSnapshots: a target's store is
// shared by all of its campaigns, and shared clean pages keep the
// per-snapshot footprint small.
const DefaultTargetMaxSnapshots = 512

// TargetOptions tunes target preparation.
type TargetOptions struct {
	// SnapshotInterval is the golden-run checkpoint spacing in dynamic
	// instructions. Zero selects DefaultSnapshotInterval.
	SnapshotInterval uint64
	// MaxSnapshots bounds the stored snapshots (0 = DefaultTargetMaxSnapshots).
	MaxSnapshots int
	// Disable turns speed tiers off for every campaign on the target
	// (zero = all on). Preparation applies the target-level ones itself:
	// with TierSnapshots in the set the target keeps no snapshots (the
	// checkpoint pass still runs, and its golden trace keeps them), and
	// with TierConverge it keeps no trace. The profile is
	// bit-identical for any set, and so are the recorded outcomes of
	// every campaign (the differential suites enforce both).
	Disable vm.Tiers
}

// NewTarget profiles p fault-free, recording golden-run snapshots at the
// default interval, and returns the prepared target.
func NewTarget(name string, p *ir.Program) (*Target, error) {
	return NewTargetOpts(name, p, TargetOptions{})
}

// NewTargetOpts is NewTarget with explicit preparation options.
func NewTargetOpts(name string, p *ir.Program, opts TargetOptions) (*Target, error) {
	disable := opts.Disable | vm.EnvDisabled()
	vopts := vm.Options{
		Disable:      disable,
		Checkpoint:   opts.SnapshotInterval,
		MaxSnapshots: opts.MaxSnapshots,
	}
	if vopts.Checkpoint == 0 {
		vopts.Checkpoint = DefaultSnapshotInterval
	}
	if vopts.MaxSnapshots == 0 {
		vopts.MaxSnapshots = DefaultTargetMaxSnapshots
	}
	prof, err := vm.ProfileWith(p, vopts)
	if err != nil {
		return nil, fmt.Errorf("core: prepare %s: %w", name, err)
	}
	if len(prof.Output) == 0 {
		return nil, fmt.Errorf("core: prepare %s: fault-free run produced no output", name)
	}
	t := &Target{
		Name:       name,
		Prog:       p,
		Golden:     prof.Output,
		GoldenDyn:  prof.Dyn,
		ReadCands:  prof.ReadSlots,
		WriteCands: prof.Writes,
		ReadRoles:  prof.ReadRoles,
		WriteRoles: prof.WriteRoles,
		Disable:    disable,
	}
	if !disable.Has(vm.TierSnapshots) {
		t.Snapshots = prof.Snapshots
	}
	if !disable.Has(vm.TierConverge) {
		t.Trace = prof.Trace
	}
	return t, nil
}

// SnapshotBefore returns the latest golden-run snapshot whose candidate
// counter for the technique is <= cand — the furthest checkpoint from
// which a run injecting first at candidate cand can legally resume — or
// nil when no snapshot precedes the candidate (always, on a target
// prepared without TierSnapshots).
func (t *Target) SnapshotBefore(tech Technique, cand uint64) *vm.Snapshot {
	onWrite := tech == InjectOnWrite
	// Candidate counters increase with Dyn, so Snapshots is sorted by
	// Candidates too; find the first snapshot past cand.
	i := sort.Search(len(t.Snapshots), func(i int) bool {
		return t.Snapshots[i].Candidates(onWrite) > cand
	})
	if i == 0 {
		return nil
	}
	return t.Snapshots[i-1]
}

// SnapshotBeforeDyn returns the latest golden-run snapshot taken at or
// before dynamic instruction dyn — the furthest checkpoint from which a
// run whose first fault lands at instant dyn can legally resume — or nil
// when no snapshot precedes it. Memory-fault campaigns use it to
// fast-forward: their corruptions are scheduled by dynamic instant rather
// than by candidate index.
func (t *Target) SnapshotBeforeDyn(dyn uint64) *vm.Snapshot {
	i := sort.Search(len(t.Snapshots), func(i int) bool {
		return t.Snapshots[i].Dyn > dyn
	})
	if i == 0 {
		return nil
	}
	return t.Snapshots[i-1]
}

// Roles returns the candidate-role decomposition for a technique.
func (t *Target) Roles(tech Technique) [ir.NumSlotRoles]uint64 {
	if tech == InjectOnWrite {
		return t.WriteRoles
	}
	return t.ReadRoles
}

// Candidates returns the candidate-space size for a technique.
func (t *Target) Candidates(tech Technique) uint64 {
	if tech == InjectOnWrite {
		return t.WriteCands
	}
	return t.ReadCands
}

// Classify maps a run result to the paper's outcome categories (§III-E)
// with the default exact-output classifier. Campaigns that want a
// different output judgement set Engine.Classifier instead; this method
// is the back-compat shorthand for the default.
func (t *Target) Classify(res *vm.Result) Outcome {
	return ExactClassifier{}.Classify(t.Golden, res)
}
