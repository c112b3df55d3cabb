package vm

// Convergence-gated early termination. A fault-injection experiment whose
// flipped bits are overwritten before they are read reconverges with the
// golden run: from that point on it executes exactly what the fault-free
// run does, so its outcome is already known. This file implements the
// detector.
//
// The golden (checkpointing) run keeps three lists of snapshots, which
// hold the golden state exactly: the grid, taken every so many
// instructions; the return snapshots, taken right after returns to main
// (a ret that leaves only main's frame); and the output snapshots, taken
// right after output instructions. Its GoldenTrace is the three lists plus
// the final observables. An injected run carrying the trace checks itself
// once its injections are complete, in three ways:
//
//   - at a grid snapshot's instant, against that snapshot;
//   - at its k-th return to main, counted from its resume snapshot (every
//     snapshot records how many returns to main preceded it), against the
//     golden k-th return snapshot, however late or early it got there;
//   - right after an output instruction that brings its output to the
//     length of a kept output snapshot, against that snapshot. The
//     output's length is the clock: a resumed run starts from its resume
//     snapshot's output, so it needs no counter of its own.
//
// Grid and output checks back off exponentially across failed checks, so
// a run that never reconverges pays O(log n) of them; a run that reaches
// the golden state stays in it, so a later check still catches it.
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
	"math"
	"slices"

	"multiflip/internal/ir"
)

// GoldenTrace is a golden run's record for convergence: its kept grid
// snapshots, its return and output snapshots, the program image's page
// table it started from, and its final observables. It is immutable once
// recorded, so one trace (stored on the campaign target) serves any
// number of concurrent experiments.
type GoldenTrace struct {
	prog     *ir.Program
	snaps    []*Snapshot // the grid, ascending Dyn
	rets     events      // right after returns to main
	outs     events      // right after output instructions
	imgPages [][]byte    // the globals page table a fresh run starts from

	finalDyn       uint64
	finalReadSlots uint64
	finalWrites    uint64
	finalOut       []byte
	finalStop      StopReason
	maxFrames      int
	noAlign        bool
}

// events is one of a golden run's lists of snapshots taken right after
// an event: a return to main, or an output instruction. snaps[i] follows
// event number (i+1)*stride. Like the grid, the list is capped: a full
// list drops every other snapshot and doubles its stride.
type events struct {
	snaps  []*Snapshot
	stride uint64
	max    int
}

// at returns the snapshot taken right after event number k, or nil when
// the list kept none for it.
func (e *events) at(k uint64) *Snapshot {
	i := k / e.stride
	if k%e.stride != 0 || i == 0 || i > uint64(len(e.snaps)) {
		return nil
	}
	return e.snaps[i-1]
}

// maxOutSnaps caps a golden run's output snapshots, well below the grid's
// cap: a program that prints in a loop would otherwise keep hundreds of
// snapshots (bfs prints 256 times at its end), while a run that reaches
// the golden state stays in it, so a sparse list still catches it.
const maxOutSnaps = 16

// record takes the golden run's snapshot right after event number k of
// e's kind, when k falls on e's stride, and thins e when it is full.
// Called with every counter flushed and fr.pc past the event's
// instruction.
func (m *machine) record(e *events, k uint64) {
	if k%e.stride != 0 {
		return
	}
	e.snaps = append(e.snaps, m.capture())
	if len(e.snaps) >= e.max {
		e.snaps = thin(e.snaps)
		e.stride *= 2
		m.unlinkDropped()
	}
}

// finish completes the trace of the golden run that recorded it: the
// final observables, and on every grid snapshot the index hints a run
// resumed from it starts its check cursors at (scheduleConv).
func (t *GoldenTrace) finish(m *machine) {
	t.snaps = m.snaps
	t.imgPages = m.imgPages
	t.finalDyn = m.dyn
	t.finalReadSlots = m.readSlots
	t.finalWrites = m.writes
	t.finalOut = m.out[:len(m.out):len(m.out)]
	t.finalStop = m.stop
	j := 0
	for i, s := range t.snaps {
		for j < len(t.outs.snaps) && len(t.outs.snaps[j].out) <= len(s.out) {
			j++
		}
		s.gridIdx, s.outIdx = i, j
	}
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

// noConv disables grid convergence checks in the interpreter loop, and
// noOutCheck output checks in every execution tier.
const (
	noConv     = ^uint64(0)
	noOutCheck = math.MaxInt
)

// startCursors places the grid and output check cursors of a run that
// resumes from s (nil: from instruction 0) at s's own position in the
// trace, which scheduleConv scans forward from. A snapshot of another
// run has no position in this trace, so its run scans from the start.
func (m *machine) startCursors(s *Snapshot) {
	if s != nil && s.gridIdx < len(m.trace.snaps) && m.trace.snaps[s.gridIdx] == s {
		m.convIdx, m.outIdx = s.gridIdx, s.outIdx
	}
}

// scheduleConv arms the convergence checks once the run's injections are
// complete: the first grid check lands on the first golden snapshot at or
// after the current instant, and the first output check on the first
// output snapshot longer than the current output. The schedule depends
// only on the injection completion point, so it is identical across
// worker counts, snapshot fast-forwarding and dispatch variants, and so is
// whether the run converges.
func (m *machine) scheduleConv() {
	m.convSched = true
	m.convStride, m.outStride = 1, 1
	ss := m.trace.snaps
	for m.convIdx < len(ss) && ss[m.convIdx].Dyn < m.dyn {
		m.convIdx++
	}
	m.nextConv = noConv
	if m.convIdx < len(ss) {
		m.nextConv = ss[m.convIdx].Dyn
	}
	os := m.trace.outs.snaps
	for m.outIdx < len(os) && len(os[m.outIdx].out) <= len(m.out) {
		m.outIdx++
	}
	m.setOutCheck()
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
	m.convIdx, m.convStride = backOff(m.convIdx, m.convStride)
	if m.convIdx >= len(ss) {
		m.nextConv = noConv
	} else {
		m.nextConv = ss[m.convIdx].Dyn
	}
	return false
}

// backOff advances a check cursor past a failed check: by stride
// snapshots, doubling the stride up to convStrideCap.
func backOff(idx, stride int) (int, int) {
	idx += stride
	if stride < convStrideCap {
		stride *= 2
	}
	return idx, stride
}

// convStrideCap bounds the exponential back-off of divergent convergence
// checks, in golden snapshots: uncapped back-off would effectively stop
// checking long divergent runs and miss faults whose corrupted memory is
// overwritten late, while checking every snapshot would tax runs that
// never reconverge.
const convStrideCap = 64

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
		m.record(&m.rec.rets, m.rets)
		return false
	}
	if m.trace == nil || m.injRead || m.injWrite || m.memIdx < len(m.memFlips) {
		return false
	}
	s := m.trace.rets.at(m.rets)
	if s == nil || !m.sameState(s) {
		return false
	}
	m.convergeFinish(s)
	return true
}

// outEvent runs right after an output instruction that brought the output
// to m.outCheck, with the counters flushed and fr.pc past the output:
// hOut reports it to step and sprint, and the kernels exit on it
// (kernEvent). The golden run, whose check length is 0, records its
// output snapshot there; an injected run, whose check length is the
// next output snapshot's once its convergence checks are scheduled,
// checks itself against that snapshot when its output has exactly that
// length, and backs off on a mismatch. It reports whether the run
// converged and is over.
func (m *machine) outEvent() bool {
	if m.rec != nil {
		m.outEvents++
		m.record(&m.rec.outs, m.outEvents)
		return false
	}
	os := m.trace.outs.snaps
	for m.outIdx < len(os) && len(os[m.outIdx].out) < len(m.out) {
		m.outIdx++
	}
	if m.outIdx < len(os) && len(os[m.outIdx].out) == len(m.out) {
		if s := os[m.outIdx]; m.sameState(s) {
			m.convergeFinish(s)
			return true
		}
		m.outIdx, m.outStride = backOff(m.outIdx, m.outStride)
	}
	m.setOutCheck()
	return false
}

// setOutCheck sets the output length of the next output check: the
// length of the output snapshot at the cursor, or none past the list.
func (m *machine) setOutCheck() {
	m.outCheck = noOutCheck
	if os := m.trace.outs.snaps; m.outIdx < len(os) {
		m.outCheck = len(os[m.outIdx].out)
	}
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
