package vm

import (
	"errors"
	"sync"

	"multiflip/internal/ir"
)

// Snapshot captures the complete machine state at a dynamic-instruction
// boundary: after the first Dyn instructions have fully executed and before
// instruction Dyn begins. A snapshot is immutable once taken, so one stored
// snapshot can seed any number of concurrent resumed runs.
//
// Memory is captured as page-granular deltas: each snapshot records only
// the pages dirtied since its base (the previous snapshot of the same run,
// or the run's resume point), so capture cost scales with the interval's
// write set, not with segment size. The full page tables a resume needs
// are materialized lazily — once per snapshot, memoized, walking the base
// chain — and every clean page in them is shared with the predecessor
// (ultimately with the immutable program image). Resume copies those
// tables into the machine's flat segments, so the shared pages are only
// ever read.
//
// Snapshots are the mechanism behind golden-run fast-forwarding: the
// campaign runner records them during the fault-free profile run and starts
// each experiment from the latest snapshot that precedes the experiment's
// first injection candidate, skipping the deterministic fault-free prefix.
type Snapshot struct {
	// Dyn is the number of dynamic instructions executed before this
	// snapshot; resuming continues with instruction index Dyn.
	Dyn uint64
	// ReadSlots is the number of register-read operand slots consumed so
	// far: the inject-on-read candidate counter at the snapshot point.
	ReadSlots uint64
	// Writes is the number of destination-register writes performed so far:
	// the inject-on-write candidate counter at the snapshot point.
	Writes uint64

	prog *ir.Program
	// frames' register files are subslices of regSlab, mirroring the
	// machine's arena layout so restore is one copy plus rebasing.
	frames  []frame
	regSlab []uint64

	// base is the snapshot this one's deltas patch: the run's previous
	// capture, or its resume point. nil means the baseline is the program
	// image (globals) and an all-zero stack.
	base        *Snapshot
	imgPages    [][]byte // program-image page table, the base==nil baseline
	globalDelta pageDelta
	stackDelta  pageDelta
	globalLen   int
	sp          int
	stackHW     int

	// Materialized full page tables (tables()); globalTbl covers the whole
	// global segment, stackTbl the live prefix [0, stackHW). A nil page is
	// all zeroes.
	tblOnce   sync.Once
	globalTbl [][]byte
	stackTbl  [][]byte

	out        []byte
	readRoles  [ir.NumSlotRoles]uint64
	writeRoles [ir.NumSlotRoles]uint64
}

// Candidates returns the snapshot's candidate counter for a technique:
// Writes for inject-on-write, ReadSlots for inject-on-read. A plan whose
// FirstCand is >= this value can safely resume from the snapshot.
func (s *Snapshot) Candidates(onWrite bool) uint64 {
	if onWrite {
		return s.Writes
	}
	return s.ReadSlots
}

// patchPages materializes a full np-entry page table from a base table
// and a delta: clean pages share the base entry (nil — all-zero — beyond
// it), dirtied pages take the delta's copies.
func patchPages(base [][]byte, d pageDelta, np int) [][]byte {
	t := make([][]byte, np)
	copy(t, base)
	for k, i := range d.idx {
		t[i] = d.pages[k]
	}
	return t
}

// tables returns the snapshot's materialized page tables, building them
// on first use by patching the base chain's tables with this snapshot's
// deltas. Memoized: the cost is paid once per snapshot no matter how many
// runs resume from it, and never for snapshots no run resumes from.
func (s *Snapshot) tables() (globalTbl, stackTbl [][]byte) {
	s.tblOnce.Do(func() {
		gt := s.imgPages
		var st [][]byte
		if s.base != nil {
			gt, st = s.base.tables()
		}
		s.globalTbl = patchPages(gt, s.globalDelta, numPages(s.globalLen))
		s.stackTbl = patchPages(st, s.stackDelta, numPages(s.stackHW))
	})
	return s.globalTbl, s.stackTbl
}

// selfContain materializes the snapshot's tables and drops its base
// reference, so thinned-away predecessors (and their frame slabs) can be
// collected. Only safe while the owning run still has exclusive access.
func (s *Snapshot) selfContain() {
	s.tables()
	s.base = nil
	s.imgPages = nil
}

// DefaultMaxSnapshots bounds the snapshots a checkpointing run keeps when
// Options.MaxSnapshots is zero. When the cap is reached the run drops every
// other snapshot and doubles its interval, so any run length yields between
// MaxSnapshots/2 and MaxSnapshots evenly spaced snapshots.
const DefaultMaxSnapshots = 128

// noSnap disables checkpointing in the interpreter loop.
const noSnap = ^uint64(0)

// takeSnapshot records the current machine state. Called at the top of the
// interpreter loop, so m.dyn instructions have fully executed and every
// counter is at an instruction boundary.
func (m *machine) takeSnapshot() {
	// Only the pages dirtied since the previous capture are copied;
	// everything else is represented by the base chain.
	gd := m.globals.captureDelta(m.globals.n)
	var sd pageDelta
	if m.stackHW > 0 {
		sd = m.stack.captureDelta(m.stackHW)
	}
	if m.rec != nil {
		// Golden trace recording piggybacks on the capture pass: the
		// deltas hold exactly the pages dirtied this interval, so the
		// state fingerprint updates from them without re-scanning.
		m.recordTraceEntry(gd, sd)
	}
	s := &Snapshot{
		Dyn:         m.dyn,
		ReadSlots:   m.readSlots,
		Writes:      m.writes,
		prog:        m.prog,
		base:        m.lastSnap,
		globalDelta: gd,
		stackDelta:  sd,
		globalLen:   m.globals.n,
		sp:          m.sp,
		stackHW:     m.stackHW,
		// The output buffer is append-only; a capacity-clamped view of the
		// current prefix is immutable without copying.
		out:        m.out[:len(m.out):len(m.out)],
		readRoles:  m.readRoles,
		writeRoles: m.writeRoles,
	}
	if s.base == nil {
		s.imgPages = m.imgPages
	}
	m.lastSnap = s

	// The arena is exactly the concatenation of the live frames' register
	// files: snapshot it as one slab and rebase the frame slices into it.
	s.regSlab = append([]uint64(nil), m.regArena[:m.regTop]...)
	s.frames = append([]frame(nil), m.frames...)
	for i := range s.frames {
		fr := &s.frames[i]
		hi := fr.regBase + len(fr.regs)
		fr.regs = s.regSlab[fr.regBase:hi:hi]
	}

	m.snaps = append(m.snaps, s)
	if len(m.snaps) >= m.maxSnaps {
		// Thin to every other snapshot and double the interval; long runs
		// keep bounded memory at proportionally coarser granularity. The
		// survivors are made self-contained so the dropped snapshots'
		// memory is actually released.
		k := 0
		for i := 1; i < len(m.snaps); i += 2 {
			m.snaps[k] = m.snaps[i]
			k++
		}
		m.snaps = m.snaps[:k]
		for _, kept := range m.snaps {
			kept.selfContain()
		}
		m.checkpoint *= 2
	}
	m.nextSnap = m.dyn + m.checkpoint
}

var (
	errResumeProg      = errors.New("vm: resume snapshot belongs to a different program")
	errResumeCand      = errors.New("vm: plan's first candidate precedes the resume snapshot")
	errResumeMem       = errors.New("vm: memory flip scheduled before the resume snapshot")
	errCheckpointFault = errors.New("vm: checkpointing a run with injections is not supported")
	errTraceProg       = errors.New("vm: golden trace belongs to a different program")
)

// restore initializes the machine from a snapshot, flattening its page
// tables into the machine's pooled segment buffers: the whole globals,
// and the stack up to its high-water mark (every mapped access is below
// sp <= stackHW, and later high-water growth extends it). The snapshot
// stays reusable, since its pages are only read. It returns an error
// when the snapshot cannot reproduce a straight run under the machine's
// options: wrong program, a plan whose first candidate the snapshot has
// already passed, or a memory flip due before the snapshot point.
func (m *machine) restore(s *Snapshot) error {
	if s.prog != m.prog {
		return errResumeProg
	}
	if p := m.plan; p != nil && p.FirstCand < s.Candidates(p.OnWrite) {
		return errResumeCand
	}
	if len(m.memFlips) > 0 && m.memFlips[0].AtDyn < s.Dyn {
		return errResumeMem
	}
	m.dyn = s.Dyn
	m.readSlots = s.ReadSlots
	m.writes = s.Writes
	globalTbl, stackTbl := s.tables()
	m.globals = flatMem(s.globalLen, flattenInto(m.globals.flat[:0], globalTbl, s.globalLen))
	m.sp = s.sp
	m.stackHW = s.stackHW
	m.stack = flatMem(ir.StackSize, flattenInto(m.stack.flat[:0], stackTbl, s.stackHW))
	// The prefix is copied into the run's own buffer: appending to the
	// snapshot's view would reallocate on the first byte, and adopting
	// it would let a later run write into the snapshot.
	m.out = append(m.out[:0], s.out...)
	if m.countRoles {
		// Continue the role tallies from the snapshot so a checkpointing
		// profile run and its resumed halves agree. Runs that do not count
		// roles leave the arrays zero, matching the Result contract.
		m.readRoles = s.readRoles
		m.writeRoles = s.writeRoles
	}
	// If this run checkpoints too, its captures patch the resume point.
	m.lastSnap = s

	if need := len(s.regSlab) + 64; cap(m.regArena) < need {
		m.regArena = make([]uint64, need)
	} else {
		m.regArena = m.regArena[:cap(m.regArena)]
	}
	m.regTop = copy(m.regArena, s.regSlab)
	m.frames = append(m.frames[:0], s.frames...)
	for i := range m.frames {
		fr := &m.frames[i]
		hi := fr.regBase + len(fr.regs)
		fr.regs = m.regArena[fr.regBase:hi:hi]
	}
	return nil
}
