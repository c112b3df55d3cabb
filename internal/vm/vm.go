// Package vm executes ir.Programs and provides the mechanism half of fault
// injection: it counts injection candidates as the program runs and applies
// bit-flip masks to live registers at positions chosen by an injection
// Plan. Policy — which candidates, how many flips, window sampling — lives
// in internal/core.
//
// The VM also emulates the hardware-exception surface the study depends
// on: corrupted addresses hit unmapped space (segmentation fault) or lose
// alignment (misaligned access); corrupted divisors trap (arithmetic);
// runaway control flow exhausts a dynamic-instruction budget (hang).
//
// # Golden-run checkpointing
//
// A run with Options.Checkpoint > 0 records an immutable Snapshot of the
// full machine state (call frames, registers, pc, globals, stack, output,
// and the dynamic/candidate counters) every Checkpoint dynamic
// instructions, thinning to Options.MaxSnapshots by interval doubling. A
// later run with Options.Resume starts from such a snapshot instead of
// instruction 0. Because the fault-free prefix of every injection run is
// deterministic and consumes no randomness, resuming from any snapshot
// taken before the first injection candidate is bit-identical to a full
// replay: same Result, same trap, same output, same injection sampling.
// internal/core uses this to fast-forward each campaign experiment past
// the prefix its golden run already computed.
//
// Snapshots are page-granular deltas: the machine keeps a dirty-page
// bitmap updated by stores, and capture copies only the pages dirtied
// since the previous checkpoint, sharing every clean page with its
// predecessor. Resume copies a snapshot's pages into the machine's flat
// segments. See mem.go and snapshot.go.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"multiflip/internal/ir"
)

// TrapKind identifies the hardware exception that ended a run.
type TrapKind int

// Trap kinds, mirroring the exception classes in the paper's "Detected by
// Hardware Exceptions" category (§III-E).
const (
	TrapNone TrapKind = iota
	TrapSegfault
	TrapMisaligned
	TrapArithmetic
	TrapAbort
	TrapStackOverflow
)

var trapNames = map[TrapKind]string{
	TrapNone:          "none",
	TrapSegfault:      "segfault",
	TrapMisaligned:    "misaligned",
	TrapArithmetic:    "arithmetic",
	TrapAbort:         "abort",
	TrapStackOverflow: "stack-overflow",
}

// String implements fmt.Stringer.
func (t TrapKind) String() string {
	if s, ok := trapNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TrapKind(%d)", int(t))
}

// StopReason says why a run ended.
type StopReason int

// Stop reasons.
const (
	StopReturned    StopReason = iota + 1 // main returned normally
	StopTrap                              // hardware exception raised
	StopHang                              // dynamic-instruction budget exhausted
	StopOutputLimit                       // output exceeded its limit (runaway output loop)
	StopMemo                              // Options.MemoCheck recognized the post-injection state
)

var stopNames = map[StopReason]string{
	StopReturned:    "returned",
	StopTrap:        "trap",
	StopHang:        "hang",
	StopOutputLimit: "output-limit",
	StopMemo:        "memo-hit",
}

// String implements fmt.Stringer.
func (s StopReason) String() string {
	if n, ok := stopNames[s]; ok {
		return n
	}
	return fmt.Sprintf("StopReason(%d)", int(s))
}

// Defaults for Options fields left zero.
const (
	DefaultMaxDyn    = 200_000_000
	DefaultMaxOutput = 1 << 20
	DefaultMaxDepth  = 256
)

// Options configures a run.
type Options struct {
	// MaxDyn is the dynamic-instruction budget; exceeding it stops the run
	// with StopHang. Zero selects DefaultMaxDyn.
	MaxDyn uint64
	// MaxOutput caps the output buffer. Zero selects DefaultMaxOutput.
	MaxOutput int
	// MaxDepth caps call depth; exceeding it raises TrapStackOverflow.
	// Zero selects DefaultMaxDepth.
	MaxDepth int
	// NoAlignTrap disables the misaligned-access exception: unaligned
	// accesses inside a segment then succeed, as on hardware that supports
	// unaligned loads. Used by the alignment ablation study.
	NoAlignTrap bool
	// OnCand, when non-nil, is called once per injection candidate in
	// candidate order as the run encounters them: onWrite selects the
	// write-candidate space, cand is the candidate index within it, (fn,
	// pc) locate the instruction, and val is the register's fault-free
	// value at the injection point (pre-instruction for reads,
	// post-write for writes). slot is the read-slot index for reads, -1
	// for plain destination writes, and -2 for call-result writes (which
	// the VM performs at the matching return; pc is then the caller's
	// resume pc, with the call instruction at pc-1). Setting OnCand
	// forces the per-instruction observer tier, like CountRoles;
	// profiling only.
	OnCand func(onWrite bool, cand uint64, fn, pc, slot int, val uint64)
	// CountRoles additionally classifies every candidate slot by
	// ir.SlotRole during the run (address/data/control/float), filling
	// Result.ReadRoles and Result.WriteRoles. Profiling only: it slows the
	// interpreter loop.
	CountRoles bool
	// Plan, when non-nil, enables register fault injection for this run.
	Plan *Plan
	// MemFlips, when non-empty, flips bits in global-memory words at given
	// dynamic instants (the ECC-escape scenario of the paper's future
	// work). Entries must be sorted by AtDyn; Run rejects them otherwise.
	MemFlips []MemFlip
	// Checkpoint, when > 0, records a Snapshot of the machine state every
	// Checkpoint dynamic instructions into Result.Snapshots. Campaigns use
	// checkpoints taken during the golden run to fast-forward experiments
	// past the fault-free prefix. Checkpointing a run that injects faults
	// (Plan or MemFlips set) is rejected: snapshots do not capture
	// injection state.
	Checkpoint uint64
	// MaxSnapshots bounds the snapshots a checkpointing run keeps; when the
	// cap is hit, every other snapshot is dropped and the interval doubles.
	// Zero selects DefaultMaxSnapshots; values below 2 are raised to 2.
	MaxSnapshots int
	// Resume, when non-nil, starts the run from a restored snapshot instead
	// of instruction 0. The snapshot must come from the same *ir.Program,
	// Plan.FirstCand must not precede the snapshot's candidate counter, and
	// no MemFlip may be due before the snapshot's Dyn.
	Resume *Snapshot
	// Disable turns speed tiers off for this run: with TierCompile in the
	// set the VM interprets (sprint) between event horizons instead of
	// running the workload's generated native kernel (kern.go), and with
	// TierConverge it ignores Trace and MemoCheck.
	// The other members are ignored here. MULTIFLIP_DISABLE adds to the
	// set process-wide. Results are bit-identical either way (the
	// differential tests enforce it).
	Disable Tiers
	// RecordTrace, together with Checkpoint > 0, records a GoldenTrace in
	// Result.Trace: a per-boundary state-hash trace of this (fault-free)
	// run that later injected runs can converge against. Ignored when
	// resuming (a trace must start at instruction 0).
	RecordTrace bool
	// Trace, when non-nil, enables convergence-gated early termination:
	// once this run's injections are complete, its state fingerprint is
	// compared against the golden trace at event-horizon boundaries, and
	// on a match the run terminates immediately with the golden outcome
	// (Result.Converged). The trace must come from the same *ir.Program;
	// incompatible budgets or exception options silently disable the
	// checks. Ignored for checkpointing or role-counting runs.
	Trace *GoldenTrace
	// MemoCheck, when non-nil (and Trace is active), is called once with
	// the run's StateKey at the first event-horizon boundary after its
	// injections completed and its state diverges from golden. Returning
	// true stops the run immediately with StopMemo: the caller already
	// knows the outcome of this post-injection state. Campaign runners
	// use it for fault-equivalence memoization.
	MemoCheck func(StateKey) bool
}

// MemFlip describes one memory-word corruption: just before the dynamic
// instruction at AtDyn executes, the 8-byte global word at byte offset
// Word (8-aligned) is XORed with Mask.
type MemFlip struct {
	// AtDyn is the dynamic-instruction index at which the flip lands.
	AtDyn uint64
	// Word is the byte offset of the 8-byte-aligned word within the
	// global segment.
	Word uint64
	// Mask is the XOR mask applied to the word (little-endian).
	Mask uint64
}

// Result reports everything observable about a run. A Result from Run
// is the caller's to keep. One from Runner.Run belongs to the Runner:
// it and its Output and InjectionDyns are valid only until the Runner's
// next Run or Reset (see Runner).
type Result struct {
	Stop   StopReason
	Trap   TrapKind
	Output []byte
	// Dyn counts executed dynamic instructions.
	Dyn uint64
	// ReadSlots counts dynamic register-read operand slots: the
	// inject-on-read candidate space (Table II, left column).
	ReadSlots uint64
	// Writes counts dynamic instructions with a destination register: the
	// inject-on-write candidate space (Table II, right column).
	Writes uint64
	// Injected is the number of bit-flip errors performed (activated).
	Injected int
	// FirstBit is the bit index of the first injection within its target
	// register, or -1 if no injection occurred or the first injection
	// flipped multiple bits (same-register multi-flip). Campaigns record
	// it so later runs can pin the exact same first error (§IV-C3).
	FirstBit int
	// FirstPre is the pre-flip value (0 or 1) of the first injected bit,
	// giving the flip direction (0 = flipped 0→1, 1 = flipped 1→0), or
	// -1 when FirstBit is unknown or nothing changed a value. For
	// stuck-at holds it reports the bit value the first value-changing
	// forced read replaced.
	FirstPre int
	// FirstRole is the ir.SlotRole of the first injection's target: the
	// role of the read slot or destination register for register plans,
	// the anchor read slot for stuck-at holds, and ir.RoleData for
	// memory-word flips. ir.RoleNone (0) when no injection occurred.
	FirstRole ir.SlotRole
	// InjectionDyns records the dynamic index of each injection.
	InjectionDyns []uint64
	// ReadRoles counts inject-on-read candidates by ir.SlotRole; filled
	// only when Options.CountRoles is set.
	ReadRoles [ir.NumSlotRoles]uint64
	// WriteRoles counts inject-on-write candidates by ir.SlotRole; filled
	// only when Options.CountRoles is set.
	WriteRoles [ir.NumSlotRoles]uint64
	// Snapshots holds the machine-state checkpoints taken during the run;
	// filled only when Options.Checkpoint > 0.
	Snapshots []*Snapshot
	// Trace is the golden state-hash trace recorded by this run; filled
	// only when Options.RecordTrace is set alongside Checkpoint.
	Trace *GoldenTrace
	// Converged marks an early-terminated run: the injected state became
	// bit-identical to the golden state at the same dynamic instant, and
	// Stop/Output/Dyn and the candidate counters report the golden
	// continuation without it having been executed.
	Converged bool
	// PostKeyed reports that PostKey holds the run's fault-equivalence
	// fingerprint: the state key at the first event-horizon boundary
	// after the injections completed with state diverging from golden.
	PostKeyed bool
	PostKey   StateKey

	// steps counts the instructions run's observer branch stepped (see
	// machine.steps); the tests use it to check that an armed plan runs
	// the fast tiers between its injection points.
	steps uint64
}

// frame is one call-stack entry. Register files live in the machine's
// register arena; regBase is the frame's offset into it, so arena growth
// and snapshot capture can rebase or slab-copy all frames at once.
type frame struct {
	code    []ir.Instr
	pc      int
	fn      int32 // function index, part of the convergence fingerprint
	regs    []uint64
	regBase int
	savedSP int
	retDst  ir.Reg // register in the CALLER receiving the return value
	hasRet  bool
}

// machine is the transient run state.
type machine struct {
	prog     *ir.Program
	globals  mem
	stack    mem
	sp       int
	stackHW  int // high-water mark of sp: bytes above it are still zero
	frames   []frame
	regArena []uint64 // concatenated register files of the live frames
	regTop   int
	out      []byte
	maxOut   int
	maxDepth int
	dyn      uint64
	maxDyn   uint64

	readSlots uint64
	writes    uint64

	checkpoint uint64
	nextSnap   uint64
	maxSnaps   int
	snaps      []*Snapshot
	// lastSnap is the previous capture (or the restore source): the base
	// the next capture's delta patches. imgPages is the program image's
	// page table, the baseline when there is no previous capture.
	lastSnap *Snapshot
	imgPages [][]byte

	noAlign    bool
	countRoles bool
	onCand     func(onWrite bool, cand uint64, fn, pc, slot int, val uint64)
	readRoles  [ir.NumSlotRoles]uint64
	writeRoles [ir.NumSlotRoles]uint64

	plan *Plan
	// injRead/injWrite mark the plan armed: step runs the injection checks
	// they gate, and run steps only the instructions at or past the
	// plan's injection horizon (injHorizon), running the fast tiers up to
	// it. Both drop to false once the plan has performed its last flip;
	// only then may convergence checks arm.
	injRead  bool
	injWrite bool
	// steps counts the instructions run's observer branch stepped: every
	// instruction of a role-counting run, and an armed plan's instructions
	// at its injection horizon. The kernels' call/return punts (kernOut),
	// which step with or without a plan, are not counted.
	steps uint64
	// kern holds the program's generated native kernels (one per
	// function), or nil when the program has none or TierCompile is
	// disabled.
	kern []kernFn
	// retDst is the caller result register of the last statRetWrote
	// return, for the dispatch loop's write accounting and injection.
	retDst      ir.Reg
	memFlips    []MemFlip
	memIdx      int
	nextMemFlip uint64
	injected    int
	firstBit    int
	firstPre    int
	firstRole   ir.SlotRole
	firstDone   bool
	nextDyn     uint64 // next dynamic index eligible for a follow-up injection
	injDyns     []uint64
	// Stuck-at hold state (Plan.Stuck): the held register and bit, the
	// dynamic index the hold expires at, and the activation frame depth
	// (the per-frame register file gives the register no identity beyond
	// its frame).
	holdReg   ir.Reg
	holdBit   int
	holdEnd   uint64
	holdDepth int

	// Convergence machinery (trace.go). trace/rec are mutually exclusive:
	// a run either consumes a golden trace (injected runs) or records one
	// (the golden checkpointing run), so the incremental fingerprint
	// fields (memH, outH, outHashed) are shared.
	trace      *GoldenTrace
	rec        *GoldenTrace
	memoCheck  func(StateKey) bool
	memH       uint64
	outH       uint64
	outHashed  int
	nextConv   uint64
	convIdx    int
	convStride int
	convSched  bool
	memoDone   bool
	converged  bool
	postKey    StateKey
	postKeyed  bool
	// gSpare/sSpare hold the segments' recyclable tracking buffers
	// between runs.
	gSpare, sSpare memBufs

	trap TrapKind
	stop StopReason
}

var errNoMain = errors.New("vm: program main must take no arguments")

// Runner executes runs on one reusable machine. Its register arena, call
// frames, flat segments, tracking buffers, output buffer and injection
// record carry over from run to run, so a campaign's hundreds of
// thousands of short resumed runs stop allocating once the Runner is
// warm. A Runner is not safe for concurrent use: the campaign engine
// gives each worker its own. The zero value is ready to use.
//
// The Result that Run returns, and the slices it holds (Output,
// InjectionDyns), belong to the Runner and stay valid only until its
// next Run or Reset, which overwrite them. A caller that keeps a result
// past that copies what it needs. The snapshots and golden trace of a
// checkpointing run are the caller's to keep: such a run never writes
// into the Runner's buffers, so they outlive later runs.
type Runner struct {
	m   machine
	res Result
	// out and injDyns are the buffers every non-checkpointing run
	// appends its output and injection instants to. A run's output is
	// adopted back only when the Runner owns it: a checkpointing run's
	// output backs its snapshots and trace, and a converged run reports
	// the golden trace's final output, which belongs to the trace.
	out     []byte
	injDyns []uint64
}

// Reset drops the last run's Result and every reference the Runner
// still holds to a program, keeping only its buffers: a Runner parked
// for reuse then pins no finished target.
func (r *Runner) Reset() {
	clear(r.m.frames[:cap(r.m.frames)])
	r.res = Result{}
}

// reset clears m after a run, keeping only its reusable buffers: the
// register arena, the frame slice, the segments' storage and their
// tracking buffers. It runs deferred, so a run that trapped, hung, hit
// the output limit or panicked leaves no state the next run can see,
// and the machine keeps no reference to the run's plan, snapshots or
// trace. The frames past the live stack are not cleared: every frame is
// written whole before it is read, and Runner.Reset clears them when
// the Runner is parked.
func (m *machine) reset() {
	*m = machine{
		regArena: m.regArena,
		frames:   m.frames[:0],
		globals:  mem{flat: m.globals.flat[:0]},
		stack:    mem{flat: m.stack.flat[:0]},
		// Tracking buffers (dirty/convergence bitmaps, page-hash arrays)
		// are kept as spares: runs that did not track leave them in the
		// spare slots, runs that did carry them in the segments.
		gSpare: mergeBufs(m.globals.takeBufs(), m.gSpare),
		sSpare: mergeBufs(m.stack.takeBufs(), m.sSpare),
	}
}

// Run executes p under opts on a fresh Runner and returns the
// observable result, which stays valid for as long as the caller keeps
// it. Structural errors (invalid program shape) return an error; traps,
// hangs and output overflows are reported in Result. Callers that run
// many experiments reuse a Runner instead.
//
// p must have passed ir.Program.Validate — true of every program built
// with the ir builder's Build/MustBuild — because the interpreter trusts
// the per-instruction caches Validate populates (Instr.NR). Running a
// hand-assembled, unvalidated Program mis-counts injection candidates
// silently.
func Run(p *ir.Program, opts Options) (*Result, error) {
	var r Runner
	res, err := r.Run(p, opts)
	if err != nil {
		return nil, err
	}
	// A copy, so the Result does not keep the machine reachable.
	out := *res
	return &out, nil
}

// Run executes p under opts on the Runner's machine. It behaves exactly
// like the package-level Run, except that the returned Result belongs
// to the Runner (see Runner).
func (r *Runner) Run(p *ir.Program, opts Options) (*Result, error) {
	envDisabled, err := envTiers()
	if err != nil {
		return nil, err
	}
	mainFn := p.Funcs[p.Main]
	if mainFn.NumArgs != 0 {
		return nil, errNoMain
	}
	m := &r.m
	defer m.reset()
	m.prog = p
	m.maxOut = opts.MaxOutput
	m.maxDepth = opts.MaxDepth
	m.maxDyn = opts.MaxDyn
	m.noAlign = opts.NoAlignTrap
	m.countRoles = opts.CountRoles
	m.onCand = opts.OnCand
	if m.onCand != nil {
		// Candidate enumeration needs every instruction stepped through
		// the observer tier (and keeps convergence and the fast tier off),
		// exactly like role counting.
		m.countRoles = true
	}
	m.plan = opts.Plan
	m.memFlips = opts.MemFlips
	m.injDyns = r.injDyns[:0]
	m.nextMemFlip = ^uint64(0)
	m.firstBit = -1
	m.firstPre = -1
	disable := opts.Disable | envDisabled
	if !disable.Has(TierCompile) {
		m.kern = kernelsFor(p)
	}
	if m.maxOut == 0 {
		m.maxOut = DefaultMaxOutput
	}
	if m.maxDepth == 0 {
		m.maxDepth = DefaultMaxDepth
	}
	if m.maxDyn == 0 {
		m.maxDyn = DefaultMaxDyn
	}
	if len(m.memFlips) > 0 {
		for i := 1; i < len(m.memFlips); i++ {
			if m.memFlips[i].AtDyn < m.memFlips[i-1].AtDyn {
				return nil, fmt.Errorf("vm: MemFlips[%d].AtDyn %d precedes MemFlips[%d].AtDyn %d: entries must be sorted by AtDyn",
					i, m.memFlips[i].AtDyn, i-1, m.memFlips[i-1].AtDyn)
			}
		}
		m.nextMemFlip = m.memFlips[0].AtDyn
	}
	if m.plan != nil {
		if err := m.plan.validate(); err != nil {
			return nil, err
		}
		m.injRead = !m.plan.OnWrite
		m.injWrite = m.plan.OnWrite
	}
	m.checkpoint = opts.Checkpoint
	m.nextSnap = noSnap
	m.nextConv = noConv
	if m.checkpoint == 0 {
		// A checkpointing run grows an output buffer of its own: its
		// snapshots and trace keep views of it.
		m.out = r.out[:0]
	} else {
		// Snapshots deliberately omit injection state (plan progress, memory
		// flip cursor); checkpointing is a golden-run facility and corrupted
		// state must not masquerade as a resumable prefix.
		if m.plan != nil || len(m.memFlips) > 0 {
			return nil, errCheckpointFault
		}
		m.maxSnaps = opts.MaxSnapshots
		if m.maxSnaps == 0 {
			m.maxSnaps = DefaultMaxSnapshots
		}
		// Thinning keeps floor(n/2) snapshots; a cap below 2 would discard
		// everything on every round.
		if m.maxSnaps < 2 {
			m.maxSnaps = 2
		}
	}
	// Convergence: a run can consume a golden trace (injected runs) or
	// record one (the golden checkpointing run), never both. Role-counting
	// runs never reach the fast tier, so convergence is pointless there;
	// incompatible budgets or exception options disable it silently (the
	// run is still correct, just never early-terminated).
	m.trace = opts.Trace
	if m.trace != nil {
		// A trace from a different program is a caller bug and is rejected
		// even when convergence is disabled, so the ablation paths validate
		// wiring exactly like the normal path.
		if m.trace.prog != p {
			return nil, errTraceProg
		}
		if disable.Has(TierConverge) || m.checkpoint > 0 ||
			m.countRoles || !m.trace.compatible(m) {
			m.trace = nil
		}
	}
	if opts.RecordTrace && m.checkpoint > 0 && opts.Resume == nil {
		m.rec = &GoldenTrace{prog: p, noAlign: m.noAlign}
	}
	if opts.Resume != nil {
		if err := m.restore(opts.Resume); err != nil {
			return nil, err
		}
	} else {
		m.globals = flatMem(len(p.Globals), append(m.globals.flat[:0], p.Globals...))
		m.stack = mem{n: ir.StackSize, flat: m.stack.flat[:0]}
		m.pushFrame(p.Main, nil, ir.NoReg, false)
	}
	if m.checkpoint > 0 {
		m.globals.dirty, m.gSpare.dirty = m.gSpare.dirty, nil
		m.stack.dirty, m.sSpare.dirty = m.sSpare.dirty, nil
		m.globals.track()
		m.stack.track()
		if opts.Resume == nil {
			// Clean pages of the first capture share the immutable program
			// image rather than being copied.
			m.imgPages = pageTable(p.Globals)
		}
		m.nextSnap = m.dyn + m.checkpoint
	}
	if m.rec != nil || m.trace != nil {
		if m.checkpoint == 0 {
			// Trace-consuming runs do not checkpoint; they still need the
			// dirty bitmap to fold page hashes at convergence checks.
			m.globals.dirty, m.gSpare.dirty = m.gSpare.dirty, nil
			m.stack.dirty, m.sSpare.dirty = m.sSpare.dirty, nil
			m.globals.track()
			m.stack.track()
		}
		m.globals.convKnown, m.globals.convH = m.gSpare.convKnown, m.gSpare.convH
		m.gSpare.convKnown, m.gSpare.convH = nil, nil
		m.stack.convKnown, m.stack.convH = m.sSpare.convKnown, m.sSpare.convH
		m.sSpare.convKnown, m.sSpare.convH = nil, nil
		m.globals.trackConv(saltGlobals)
		m.stack.trackConv(saltStack)
		m.outH = fnvOffset
		m.nextConv = noConv
		if m.trace != nil && opts.Resume != nil {
			// Seed the fingerprint from the golden entry at the resume
			// point; a snapshot off the trace's boundary grid cannot be
			// fingerprinted incrementally, so convergence is disabled.
			if e := m.trace.entryAt(opts.Resume.Dyn); e != nil && e.outLen == uint64(len(m.out)) {
				m.memH = e.memH
				m.outH = e.outH
			} else {
				m.trace = nil
			}
		}
		m.outHashed = len(m.out)
	}
	if m.trace != nil {
		m.memoCheck = opts.MemoCheck
		// Size the output buffer for the golden output: runs that reach
		// the output phase otherwise pay repeated growth copies. A warm
		// Runner's buffer is already large enough.
		if want := len(m.trace.finalOut) + 64; cap(m.out) < want {
			m.out = append(make([]byte, 0, want), m.out...)
		}
	}
	m.run()
	out := m.out
	if m.converged {
		// The golden continuation's output belongs to the trace; the
		// Runner keeps its own buffer.
		out = m.trace.finalOut
	}
	if m.checkpoint == 0 {
		r.out = m.out
	}
	r.injDyns = m.injDyns
	r.res = Result{
		Stop:          m.stop,
		Trap:          m.trap,
		Output:        out,
		Dyn:           m.dyn,
		ReadSlots:     m.readSlots,
		Writes:        m.writes,
		Injected:      m.injected,
		FirstBit:      m.firstBit,
		FirstPre:      m.firstPre,
		FirstRole:     m.firstRole,
		InjectionDyns: m.injDyns,
		ReadRoles:     m.readRoles,
		WriteRoles:    m.writeRoles,
		Snapshots:     m.snaps,
		Converged:     m.converged,
		PostKeyed:     m.postKeyed,
		PostKey:       m.postKey,
		steps:         m.steps,
	}
	if m.rec != nil {
		m.rec.finalDyn = m.dyn
		m.rec.finalReadSlots = m.readSlots
		m.rec.finalWrites = m.writes
		m.rec.finalOut = m.out[:len(m.out):len(m.out)]
		m.rec.finalStop = m.stop
		r.res.Trace = m.rec
	}
	return &r.res, nil
}

// Profile runs p fault-free and returns the result; callers use it to
// capture the golden output, the fault-free dynamic instruction count, the
// candidate-space sizes and the per-role candidate composition.
func Profile(p *ir.Program) (*Result, error) {
	return ProfileWith(p, Options{})
}

// ProfileWith is Profile with explicit options (e.g. Checkpoint, to record
// golden-run snapshots while profiling). CountRoles is always enabled; a
// run that does not terminate normally is an error.
func ProfileWith(p *ir.Program, opts Options) (*Result, error) {
	opts.CountRoles = true
	opts.Plan = nil
	opts.MemFlips = nil
	res, err := Run(p, opts)
	if err != nil {
		return nil, err
	}
	if res.Stop != StopReturned {
		return nil, fmt.Errorf("vm: fault-free run of %s stopped with %s/%s",
			p.Name, res.Stop, res.Trap)
	}
	return res, nil
}

// allocRegs carves n zeroed registers off the arena, growing it (and
// rebasing the live frames' register slices) when full.
func (m *machine) allocRegs(n int) []uint64 {
	need := m.regTop + n
	if need > len(m.regArena) {
		c := 2 * len(m.regArena)
		if c < need {
			c = need
		}
		if c < 64 {
			c = 64
		}
		na := make([]uint64, c)
		copy(na, m.regArena[:m.regTop])
		m.regArena = na
		for i := range m.frames {
			fr := &m.frames[i]
			fr.regs = na[fr.regBase : fr.regBase+len(fr.regs) : fr.regBase+len(fr.regs)]
		}
	}
	s := m.regArena[m.regTop:need:need]
	for i := range s {
		s[i] = 0
	}
	m.regTop = need
	return s
}

func (m *machine) pushFrame(fIdx int, args []uint64, retDst ir.Reg, hasRet bool) {
	f := m.prog.Funcs[fIdx]
	base := m.regTop
	regs := m.allocRegs(f.NumRegs)
	copy(regs, args)
	m.frames = append(m.frames, frame{
		code:    f.Code,
		fn:      int32(fIdx),
		regs:    regs,
		regBase: base,
		savedSP: m.sp,
		retDst:  retDst,
		hasRet:  hasRet,
	})
	if m.rec != nil && len(m.frames) > m.rec.maxFrames {
		// Convergence under a smaller call-depth budget than the golden
		// run's peak could hide a stack-overflow trap in the continuation;
		// the recorded peak lets compatible() refuse such runs.
		m.rec.maxFrames = len(m.frames)
	}
}

func (m *machine) trapOut(k TrapKind) {
	m.trap = k
	m.stop = StopTrap
}

// endPlan marks the injection plan complete: the run stops computing its
// injection horizon, step drops its injection checks, and convergence
// checks may arm.
func (m *machine) endPlan() {
	m.injRead = false
	m.injWrite = false
}

// val returns the raw 64-bit payload of an operand.
func val(regs []uint64, o ir.Operand) uint64 {
	if o.IsImm() {
		return o.Imm()
	}
	return regs[o.Reg()]
}

// run is the interpreter loop. It sets m.stop before returning.
//
// The loop is two-tier. The outer tier handles the events that can fire
// between instructions — hang budget, snapshot capture, scheduled memory
// flips, an armed plan's injection horizon — and decides which execution
// tier the next stretch takes:
//
//   - Role-counting runs, and an armed injection plan at its injection
//     horizon (injHorizon: the first instruction at which the plan could
//     act), execute one instruction through step(), which drives the
//     handler table and interleaves the injection checks and role
//     tallies. The horizon is recomputed at every stop, so a plan steps
//     only where a flip can land, plus every instruction of a live
//     stuck-at hold.
//   - Otherwise the workload's compiled kernel, when it has one, runs
//     up to the event horizon (the nearest of the hang budget, the next
//     snapshot, the next memory flip, the next convergence check and the
//     injection horizon); without one, sprint() drives the same handler
//     table to the horizon with no per-instruction event checks at all,
//     keeping the dynamic and candidate counters in locals.
//
// Convergence checks arm only once the plan has ended (endPlan clears the
// armed flags), at the first stop after its last flip, which is stepped;
// so the first check, and the StateKey it takes, do not depend on which
// tiers ran the injected prefix.
func (m *machine) run() {
	fr := &m.frames[len(m.frames)-1]
	for {
		if m.dyn >= m.maxDyn {
			m.stop = StopHang
			return
		}
		if m.dyn >= m.nextSnap {
			m.takeSnapshot()
		}
		if m.dyn >= m.nextMemFlip {
			m.applyMemFlip(m.dyn)
		}
		armed := m.injRead || m.injWrite
		inj := noInj
		if armed {
			inj = m.injHorizon()
		}
		if m.countRoles || inj <= m.dyn {
			m.steps++
			if fr = m.step(fr); fr == nil {
				return
			}
			continue
		}
		// Convergence checks arm once every injection is done (memory
		// flips are checked here) and fire at golden-trace boundaries via
		// the event horizon.
		if m.trace != nil && !armed && m.memIdx == len(m.memFlips) {
			if !m.convSched {
				m.scheduleConv()
			}
			if m.dyn >= m.nextConv && m.checkConverge() {
				return
			}
		}
		// The event horizon: no snapshot, memory flip, convergence check,
		// injection or hang stop can fire strictly before this dynamic
		// index. applyMemFlip, takeSnapshot and checkConverge always
		// advance their cursors past m.dyn, and an injection horizon at
		// m.dyn was stepped above, so the execution tiers below make
		// progress on every outer iteration (m.dyn < limit holds here).
		limit := m.maxDyn
		if m.nextSnap < limit {
			limit = m.nextSnap
		}
		if m.nextMemFlip < limit {
			limit = m.nextMemFlip
		}
		if m.nextConv < limit {
			limit = m.nextConv
		}
		if inj < limit {
			limit = inj
		}
		// The workload's generated native kernel executes to the horizon
		// with no dispatch at all. Calls and returns punt to one observed
		// step (cheap: they are rare and already cold), halts end the run,
		// and a bail — a pc or frame shape the kernel does not know —
		// falls back to sprint.
		if m.kern != nil && int(fr.fn) < len(m.kern) {
			if kf := m.kern[fr.fn]; kf != nil {
				switch kf(m, fr, limit) {
				case kernHorizon:
					continue
				case kernOut:
					if fr = m.step(fr); fr == nil {
						return
					}
					continue
				case kernHalt:
					return
				}
				// kernBail: nothing executed; sprint handles the stretch.
			}
		}
		if fr = m.sprint(fr, limit); fr == nil {
			return
		}
	}
}

// sprint is the fast execution tier: it executes instructions until the
// dynamic counter reaches limit (the event horizon computed by run) or
// the run stops, and returns the frame holding control, or nil when the
// run is over.
//
// Each instruction executes through the handler table, like step, but
// with no per-instruction event checks or observers: the dynamic,
// read-slot and write counters live in locals for the whole sprint —
// handlers never touch them — and are flushed back to the machine on
// every exit so snapshots and the observer tier always see exact values.
func (m *machine) sprint(fr *frame, limit uint64) *frame {
	dyn, readSlots, writes := m.dyn, m.readSlots, m.writes
	for dyn < limit {
		in := &fr.code[fr.pc]
		dyn++
		readSlots += uint64(in.NR)
		switch handlers[in.Tok](m, fr, in) {
		case statNext:
			writes += uint64(in.DW)
			fr.pc++
		case statJump:
		case statFrame, statRet:
			fr = &m.frames[len(m.frames)-1]
		case statRetWrote:
			fr = &m.frames[len(m.frames)-1]
			writes++
		default: // statHalt
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			return nil
		}
	}
	m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
	return fr
}

// step executes a single instruction with the per-instruction observers
// armed: inject-on-read before the instruction consumes its operands,
// role tallies, and inject-on-write after the destination is written. It
// returns the frame holding control afterwards, or nil when the run
// stopped. Events (hang, snapshot, memory flips) and the choice of which
// instructions to step (the injection horizon) are the outer loop's job.
func (m *machine) step(fr *frame) *frame {
	di := m.dyn
	m.dyn++
	in := &fr.code[fr.pc]
	nr := int(in.NR)

	// Inject-on-read: corrupt a source register just before the
	// instruction consumes it.
	if m.injRead {
		m.maybeInjectRead(di, in, fr.regs, nr)
	}
	if m.onCand != nil {
		for s := 0; s < nr; s++ {
			m.onCand(false, m.readSlots+uint64(s), int(fr.fn), fr.pc, s, fr.regs[in.ReadSlot(s)])
		}
	}
	m.readSlots += uint64(nr)
	if m.countRoles {
		for s := 0; s < nr; s++ {
			m.readRoles[ir.ReadSlotRole(in, s)]++
		}
		if in.DW != 0 {
			m.writeRoles[ir.DestRole(in)]++
		} else if in.Op == ir.OpRet && fr.hasRet {
			m.writeRoles[ir.RoleOther]++ // the caller's call result
		}
	}

	switch handlers[in.Tok](m, fr, in) {
	case statNext:
		// Inject-on-write: corrupt the destination register just after
		// the instruction writes it. Calls are handled at their matching
		// Ret.
		if in.DW != 0 {
			m.writes++
			if m.injWrite {
				m.maybeInjectWrite(di, ir.DestWidth(in), fr.regs, in.Dst, ir.DestRole(in))
			}
			if m.onCand != nil {
				m.onCand(true, m.writes-1, int(fr.fn), fr.pc, -1, fr.regs[in.Dst])
			}
		}
		fr.pc++
	case statJump:
	case statFrame, statRet:
		fr = &m.frames[len(m.frames)-1]
	case statRetWrote:
		// The caller's Call instruction wrote its destination now; treat
		// the return as that write for injection purposes.
		fr = &m.frames[len(m.frames)-1]
		m.writes++
		if m.injWrite {
			m.maybeInjectWrite(di, ir.W64, fr.regs, m.retDst, ir.RoleOther)
		}
		if m.onCand != nil {
			m.onCand(true, m.writes-1, int(fr.fn), fr.pc, -2, fr.regs[m.retDst])
		}
	default: // statHalt
		return nil
	}
	return fr
}

// boolBit converts a bool to 0/1.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// intDiv evaluates division/remainder, reporting arithmetic traps.
func intDiv(op ir.Op, w ir.Width, a, b uint64) (uint64, TrapKind) {
	if b == 0 {
		return 0, TrapArithmetic
	}
	switch op {
	case ir.OpUDiv:
		return a / b, TrapNone
	case ir.OpURem:
		return a % b, TrapNone
	}
	sa, sb := w.SignExtend(a), w.SignExtend(b)
	// INT_MIN / -1 overflows: x86 raises #DE.
	if sb == -1 && sa == minInt(w) {
		return 0, TrapArithmetic
	}
	switch op {
	case ir.OpSDiv:
		return uint64(sa / sb), TrapNone
	case ir.OpSRem:
		return uint64(sa % sb), TrapNone
	}
	panic("vm: intDiv bad op")
}

func minInt(w ir.Width) int64 {
	return -(int64(1) << uint(w.Bits()-1))
}

func floatBin(op ir.Op, a, b float64) float64 {
	switch op {
	case ir.OpFAdd:
		return a + b
	case ir.OpFSub:
		return a - b
	case ir.OpFMul:
		return a * b
	case ir.OpFDiv:
		return a / b
	}
	panic("vm: floatBin bad op")
}

func floatCmp(op ir.Op, a, b float64) bool {
	switch op {
	case ir.OpFCmpEQ:
		return a == b
	case ir.OpFCmpNE:
		return a != b
	case ir.OpFCmpLT:
		return a < b
	case ir.OpFCmpLE:
		return a <= b
	}
	panic("vm: floatCmp bad op")
}

// fpToSI converts saturating, then truncates to width.
func fpToSI(f float64, w ir.Width) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	lo, hi := float64(minInt(w)), float64(uint64(1)<<uint(w.Bits()-1)-1)
	if f < lo {
		f = lo
	}
	if f > hi {
		f = hi
	}
	return uint64(int64(f)) & w.Mask()
}

// load reads size bytes little-endian from the segmented address space.
func (m *machine) load(addr uint64, size int) (uint64, TrapKind) {
	s, off, trap := m.resolve(addr, size)
	if trap != TrapNone {
		return 0, trap
	}
	return s.load(off, size), TrapNone
}

// store writes size bytes little-endian.
func (m *machine) store(addr uint64, size int, v uint64) TrapKind {
	s, off, trap := m.resolve(addr, size)
	if trap != TrapNone {
		return trap
	}
	s.store(off, size, v)
	return TrapNone
}

// resolve maps a virtual address range onto a segment, enforcing alignment
// and bounds. Unmapped access is a segmentation fault; unaligned access is
// a misaligned-access exception.
func (m *machine) resolve(addr uint64, size int) (*mem, int, TrapKind) {
	// size is a power of two (1, 2, 4 or 8), so the alignment check is a
	// mask rather than a division.
	if addr&uint64(size-1) != 0 && !m.noAlign {
		return nil, 0, TrapMisaligned
	}
	// The checks subtract the segment base rather than add size to addr,
	// which wraps for an access in the top size bytes of the address
	// space; an address below the base wraps to an offset past the end.
	if off := addr - ir.GlobalBase; off < uint64(m.globals.n) && uint64(m.globals.n)-off >= uint64(size) {
		return &m.globals, int(off), TrapNone
	}
	// Only the live part of the stack ([StackBase, StackBase+sp)) is mapped.
	if off := addr - ir.StackBase; off < uint64(m.sp) && uint64(m.sp)-off >= uint64(size) {
		return &m.stack, int(off), TrapNone
	}
	return nil, 0, TrapSegfault
}

// The flat accessors are the inlinable fast paths of machine.load and
// machine.store for one access size each; the generated kernels call
// them at every load and store. Each serves an aligned access wholly
// inside the globals, and a store only when no tracking work is due: no
// dirty map, or its page already dirty, so there is no first touch to
// hash. They report false for every other access, which the caller then
// hands to machine.load or machine.store, the one definition of traps,
// dirty bits and convergence hashing.
//
// The stack is left to the fallback: no workload with a generated
// kernel allocates stack, so sp stays 0 and the stack is never mapped
// in a kernel. The globals base is page-aligned, so an aligned access
// never crosses a page, and the offset test against the segment length
// rounded down to the access size keeps an aligned access wholly
// inside. Each accessor must stay within the inliner's budget (CI
// checks `go build -gcflags=-m`): as a call, the fast path would cost
// more than the work it saves.

func (m *machine) flatLoad8(addr uint64) (uint64, bool) {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n) {
		return 0, false
	}
	return uint64(g.flat[off]), true
}

func (m *machine) flatLoad16(addr uint64) (uint64, bool) {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n)&^1 || addr&1 != 0 {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint16(g.flat[off:])), true
}

func (m *machine) flatLoad32(addr uint64) (uint64, bool) {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n)&^3 || addr&3 != 0 {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint32(g.flat[off:])), true
}

func (m *machine) flatLoad64(addr uint64) (uint64, bool) {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n)&^7 || addr&7 != 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(g.flat[off:]), true
}

func (m *machine) flatStore8(addr uint64, v uint8) bool {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n) || g.tracks(off) {
		return false
	}
	g.flat[off] = v
	return true
}

func (m *machine) flatStore16(addr uint64, v uint16) bool {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n)&^1 || addr&1 != 0 || g.tracks(off) {
		return false
	}
	binary.LittleEndian.PutUint16(g.flat[off:], v)
	return true
}

func (m *machine) flatStore32(addr uint64, v uint32) bool {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n)&^3 || addr&3 != 0 || g.tracks(off) {
		return false
	}
	binary.LittleEndian.PutUint32(g.flat[off:], v)
	return true
}

func (m *machine) flatStore64(addr uint64, v uint64) bool {
	g, off := &m.globals, addr-ir.GlobalBase
	if off >= uint64(g.n)&^7 || addr&7 != 0 || g.tracks(off) {
		return false
	}
	binary.LittleEndian.PutUint64(g.flat[off:], v)
	return true
}

// applyMemFlip performs every due memory flip at dynamic index di.
func (m *machine) applyMemFlip(di uint64) {
	for m.memIdx < len(m.memFlips) && di >= m.memFlips[m.memIdx].AtDyn {
		mf := m.memFlips[m.memIdx]
		m.memIdx++
		// Subtract rather than add, as resolve does: Word+8 wraps for a
		// word in the top 8 bytes of the address space.
		if n := uint64(m.globals.n); mf.Word >= n || n-mf.Word < 8 {
			continue // outside the global image: nothing to corrupt
		}
		v := m.globals.load(int(mf.Word), 8)
		if m.injected == 0 {
			// Uniform first-flip metadata, like the register injectors: a
			// corrupted memory word carries data, and a single-bit mask
			// has a definite position and direction.
			m.firstRole = ir.RoleData
			if popcount(mf.Mask) == 1 {
				m.firstBit = trailingZeros(mf.Mask)
				m.firstPre = int((v >> uint(m.firstBit)) & 1)
			}
		}
		m.globals.store(int(mf.Word), 8, v^mf.Mask)
		m.injected += popcount(mf.Mask)
		m.injDyns = append(m.injDyns, di)
	}
	m.nextMemFlip = ^uint64(0)
	if m.memIdx < len(m.memFlips) {
		m.nextMemFlip = m.memFlips[m.memIdx].AtDyn
	}
}

// popcount and trailingZeros are small aliases used by the injector.
func popcount(v uint64) int      { return bits.OnesCount64(v) }
func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }
