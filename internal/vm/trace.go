package vm

// Convergence-gated early termination. A fault-injection experiment whose
// flipped bits are overwritten before they are read reconverges with the
// golden run: from that point on it executes exactly what the fault-free
// run does, so its outcome is already known. This file implements the
// detector.
//
// The golden (checkpointing) run keeps two lists of snapshots, which hold
// the golden state exactly: the grid, taken every so many instructions,
// and the return snapshots, taken right after returns to main (a ret that
// leaves only main's frame). Its GoldenTrace is both lists plus the final
// observables. An injected run carrying the trace checks itself once its
// injections are complete, in two ways:
//
//   - at a grid snapshot's instant, against that snapshot;
//   - at its k-th return to main, counted from its resume snapshot (every
//     snapshot records how many returns to main preceded it), against the
//     golden k-th return snapshot, however late or early it got there.
//
// A match means the run's state equals the golden state in everything the
// continuation reads: the golden continuation follows, and the run ends
// at once (Result.Converged marks the provenance). No instruction reads
// the counters or the output's bytes, so they take no part in the match:
//
//   - the instants may differ: the counters advance by the golden suffix,
//     and a match whose shifted end would pass the hang budget does not
//     converge;
//   - only the output's length must match: the run ends with the output
//     it printed, followed by what the golden run printed from the
//     snapshot on, and the classifier judges that output.
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

// GoldenTrace is a golden run's record for convergence: its kept grid
// snapshots, its return snapshots, the program image's page table it
// started from, and its final observables. It is immutable once
// recorded, so one trace (stored on the campaign target) serves any
// number of concurrent experiments.
type GoldenTrace struct {
	prog  *ir.Program
	snaps []*Snapshot // the grid, ascending Dyn
	// rets holds the return snapshots: rets[i] follows return to main
	// number (i+1)*retStride.
	rets      []*Snapshot
	retStride uint64
	imgPages  [][]byte // the globals page table a fresh run starts from

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

// retSnap returns the golden snapshot taken right after return to main
// number k, or nil when the golden run kept none for it.
func (t *GoldenTrace) retSnap(k uint64) *Snapshot {
	i := k / t.retStride
	if k%t.retStride != 0 || i == 0 || i > uint64(len(t.rets)) {
		return nil
	}
	return t.rets[i-1]
}

// mainReturn runs right after every return that leaves only main's frame,
// in runs that count them (checkpointing and converging runs), with the
// counters flushed. The golden run records its return snapshot there; an
// injected run whose plan and memory flips are done checks itself against
// the golden snapshot of the same return. It reports whether the run
// converged and is over. step and sprint both call it, so compiled and
// interpreted runs check at the same returns.
func (m *machine) mainReturn() bool {
	m.rets++
	if m.rec != nil {
		m.takeRetSnapshot()
		return false
	}
	if m.trace == nil || m.injRead || m.injWrite || m.memIdx < len(m.memFlips) {
		return false
	}
	s := m.trace.retSnap(m.rets)
	if s == nil || !m.sameState(s) {
		return false
	}
	m.convergeFinish(s)
	return true
}

// sameState reports whether the machine state equals golden snapshot s in
// everything the continuation reads, and whether the golden continuation
// from s fits the run's hang budget from its own instant: the call
// frames, sp, the live register arena, both segments, and the output's
// length, which the output limit reads. The output's bytes and the
// counters are never read, so they may differ. The cheap comparisons come
// first; memory diverges in most runs that get that far, and only then
// are s's page tables built.
func (m *machine) sameState(s *Snapshot) bool {
	if m.trace.finalDyn-s.Dyn > m.maxDyn-m.dyn ||
		m.sp != s.sp || len(m.frames) != len(s.frames) || len(m.out) != len(s.out) ||
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
	globalTbl, stackTbl := s.tables()
	return m.globals.sameAs(globalTbl, m.startGlobals) && m.stack.sameAs(stackTbl, m.startStack)
}

// convergeFinish terminates a converged run with the golden continuation
// from snapshot s: its stop reason, and its counters and output appended
// to the run's own, without executing it. The counters advance by the
// golden suffix: the run may have reached s's state at another instant,
// over a different path with different candidate counts. When the run
// printed what the golden run had printed by s, its output is the
// golden output, which Run reports from the trace; otherwise its output
// is completed here with the golden suffix.
func (m *machine) convergeFinish(s *Snapshot) {
	t := m.trace
	m.dyn += t.finalDyn - s.Dyn
	m.readSlots += t.finalReadSlots - s.ReadSlots
	m.writes += t.finalWrites - s.Writes
	m.stop = t.finalStop
	m.converged = true
	// The prefix the run started with is a fault-free state's (restore
	// accepts only snapshots of this program, which has one fault-free
	// execution), so it is s's prefix.
	if !bytes.Equal(m.out[m.outStart:], s.out[m.outStart:]) {
		m.out = append(m.out, t.finalOut[len(s.out):]...)
		m.ownOut = true
	}
}
