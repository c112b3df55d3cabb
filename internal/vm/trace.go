package vm

// Convergence-gated early termination. A fault-injection experiment whose
// flipped bits are overwritten before they are read reconverges with the
// golden run: from that point on its execution is bit-identical to the
// fault-free run, so its outcome is already known. This file implements
// the detector.
//
// The golden (checkpointing) run's kept snapshots hold the golden state
// exactly at their instants, so they are the check grid: its GoldenTrace
// is those snapshots plus the final observables. An injected run carrying
// the trace compares itself, once its injections are complete, with the
// golden snapshot taken at the same dynamic instant. On a match the state
// is bit-identical to the golden state at that instant, the continuation
// is fully determined, and the run terminates immediately with the golden
// outcome, output and counters (Result.Converged marks the provenance).
//
// The comparison is exact and costs what can differ, not the segments'
// size. The run keeps its dirty-page bitmap from its start to its end,
// and snapshot page tables share every page the golden run did not store
// to with their predecessor, back to the program image. So a page the run
// never stored to, whose slice in the golden snapshot's table is the one
// the run started from, holds the same bytes on both sides; only the
// other pages are compared byte for byte.

import (
	"bytes"
	"slices"
	"sort"

	"multiflip/internal/ir"
)

// GoldenTrace is a golden run's record for convergence: its kept
// snapshots, which are the check grid, the program image's page table it
// started from, and its final observables. It is immutable once
// recorded, so one trace (stored on the campaign target) serves any
// number of concurrent experiments.
type GoldenTrace struct {
	prog     *ir.Program
	snaps    []*Snapshot // ascending Dyn
	imgPages [][]byte    // the globals page table a fresh run starts from

	finalDyn       uint64
	finalReadSlots uint64
	finalWrites    uint64
	finalOut       []byte
	finalStop      StopReason
	maxFrames      int
	noAlign        bool
}

// compatible reports whether a converged run under m's options would
// replay the golden continuation unchanged: the golden run terminated
// normally and fits within this run's budgets, and the exception surface
// matches. A mismatch silently disables convergence — the run is still
// correct, just never early-terminated.
func (t *GoldenTrace) compatible(m *machine) bool {
	return t.finalStop == StopReturned &&
		t.finalDyn <= m.maxDyn &&
		len(t.finalOut) <= m.maxOut &&
		t.maxFrames <= m.maxDepth &&
		t.noAlign == m.noAlign
}

// noConv disables convergence checks in the interpreter loop.
const noConv = ^uint64(0)

// scheduleConv arms the convergence checks once the run's injections are
// complete: the first check lands on the first golden snapshot at or
// after the current instant. The schedule depends only on the injection
// completion point, so it is identical across worker counts, snapshot
// fast-forwarding and dispatch variants, and so is whether the run
// converges.
func (m *machine) scheduleConv() {
	m.convSched = true
	m.convStride = 1
	ss := m.trace.snaps
	m.convIdx = sort.Search(len(ss), func(i int) bool { return ss[i].Dyn >= m.dyn })
	if m.convIdx >= len(ss) {
		m.nextConv = noConv
		return
	}
	m.nextConv = ss[m.convIdx].Dyn
}

// checkConverge runs one convergence check at the golden snapshot the
// event horizon stopped on. It returns true when the state reconverged
// with the golden run and the run is over (m.converged, golden outcome
// installed). On divergence the next check backs off exponentially in
// snapshots, so runs that never reconverge pay O(log n) checks.
func (m *machine) checkConverge() bool {
	ss := m.trace.snaps
	for m.convIdx < len(ss) && ss[m.convIdx].Dyn < m.dyn {
		m.convIdx++
	}
	if m.convIdx >= len(ss) {
		m.nextConv = noConv
		return false
	}
	s := ss[m.convIdx]
	if s.Dyn > m.dyn {
		m.nextConv = s.Dyn
		return false
	}
	if m.sameState(s) {
		m.convergeFinish(s)
		return true
	}

	// Back off exponentially, capped: uncapped doubling would effectively
	// stop checking long divergent runs and miss faults that die late in
	// the tail, while checking every snapshot would tax runs that never
	// reconverge.
	m.convIdx += m.convStride
	if m.convStride < convStrideCap {
		m.convStride *= 2
	}
	if m.convIdx >= len(ss) {
		m.nextConv = noConv
	} else {
		m.nextConv = ss[m.convIdx].Dyn
	}
	return false
}

// convStrideCap bounds the exponential back-off of divergent convergence
// checks, in golden snapshots: uncapped back-off would effectively stop
// checking long divergent runs and miss faults whose corrupted memory is
// overwritten late.
const convStrideCap = 64

// sameState reports whether the machine state equals golden snapshot s,
// taken at this instant: the call frames, sp, the live register arena,
// the output and both segments. Only the output the run appended since
// it started is compared: the prefix it started with is a fault-free
// state's (restore accepts only snapshots of this program, which has one
// fault-free execution), so it is s's prefix. The cheap register and
// frame comparisons come first; memory diverges in most runs that get
// that far, and only then are s's page tables built.
func (m *machine) sameState(s *Snapshot) bool {
	if m.sp != s.sp || len(m.frames) != len(s.frames) || len(m.out) != len(s.out) ||
		!slices.Equal(m.regArena[:m.regTop], s.regSlab) {
		return false
	}
	for i := range m.frames {
		a, b := &m.frames[i], &s.frames[i]
		if a.fn != b.fn || a.pc != b.pc || a.regBase != b.regBase || len(a.regs) != len(b.regs) ||
			a.savedSP != b.savedSP || a.retDst != b.retDst || a.hasRet != b.hasRet {
			return false
		}
	}
	if !bytes.Equal(m.out[m.outStart:], s.out[m.outStart:]) {
		return false
	}
	globalTbl, stackTbl := s.tables()
	return m.globals.sameAs(globalTbl, m.startGlobals) && m.stack.sameAs(stackTbl, m.startStack)
}

// convergeFinish terminates a converged run with the golden outcome. The
// machine state at snapshot s is bit-identical to the golden state, so
// the continuation is the golden continuation: final output, stop reason
// and counters follow without executing it. Counters are adjusted by the
// golden suffix rather than overwritten — an injected run may reach the
// convergence point over a different path with different candidate
// counts, and the suffix delta is exact either way. Run reports the
// trace's final output for a converged run; the machine's own buffer is
// left as it is.
func (m *machine) convergeFinish(s *Snapshot) {
	t := m.trace
	m.readSlots += t.finalReadSlots - s.ReadSlots
	m.writes += t.finalWrites - s.Writes
	m.dyn = t.finalDyn
	m.stop = t.finalStop
	m.converged = true
}
