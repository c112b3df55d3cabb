package vm

// Convergence-gated early termination. A fault-injection experiment whose
// flipped bits are overwritten before they are read reconverges with the
// golden run: from that point on its execution is bit-identical to the
// fault-free run, so its outcome is already known. This file implements
// the detector.
//
// The golden (checkpointing) run records a GoldenTrace: at every snapshot
// boundary, a fingerprint of the full machine state — memory via
// incrementally maintained per-page hashes (piggybacking on snapshot
// capture's dirty bitmap, so hashing scales with the interval's write
// set, not with segment size), the register arena and call frames, and
// the output prefix. An injected run carrying the trace maintains the
// same incremental fingerprint and, once its injections are complete,
// compares it against the golden entry at matching dynamic-instruction
// boundaries. On a match the state is bit-identical to the golden state
// at the same instant, the continuation is fully determined, and the run
// terminates immediately with the golden outcome, output and counters
// (Result.Converged marks the provenance).
//
// Memory fingerprints are defined relative to the program image: the
// contribution of a page is H(current) XOR H(image), folded into one
// running value with XOR, so untouched pages contribute nothing and
// neither side ever hashes a full segment. Page hashes are recorded at
// the first store to a page (its content is then still the pre-fault
// baseline), which makes the scheme exact without consulting the image.

import (
	"encoding/binary"
	"sort"

	"multiflip/internal/ir"
)

// GoldenTrace is a golden run's per-boundary state-hash trace plus its
// final observables. It is immutable once recorded, so one trace (stored
// on the campaign target) serves any number of concurrent experiments.
type GoldenTrace struct {
	prog    *ir.Program
	entries []traceEntry // ascending dyn, one per snapshot boundary

	finalDyn       uint64
	finalReadSlots uint64
	finalWrites    uint64
	finalOut       []byte
	finalStop      StopReason
	maxFrames      int
	noAlign        bool
}

// Entries reports the number of recorded boundaries (diagnostics only).
func (t *GoldenTrace) Entries() int { return len(t.entries) }

// traceEntry fingerprints the golden machine state after dyn instructions.
type traceEntry struct {
	dyn       uint64
	readSlots uint64
	writes    uint64
	memH      uint64 // memory fingerprint, relative to the program image
	regsH     uint64 // register arena + call frames + sp
	outH      uint64 // rolling FNV-1a over the output prefix
	outLen    uint64
}

// entryAt returns the trace entry recorded exactly at dyn, or nil.
func (t *GoldenTrace) entryAt(dyn uint64) *traceEntry {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].dyn >= dyn })
	if i < len(t.entries) && t.entries[i].dyn == dyn {
		return &t.entries[i]
	}
	return nil
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

// Hashing. Page and register hashes use word-wise FNV-1a with a splitmix
// pre-mix; the output hash is byte-serial FNV-1a so it can be absorbed in
// arbitrary chunks (golden and injected runs reach boundaries with
// different output increments).
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
	hashPhi   uint64 = 0x9e3779b97f4a7c15

	saltGlobals uint64 = 0x67b5a2f1c4d98e37
	saltStack   uint64 = 0x51c64b8f9ea3d70b
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// absorb folds one word into a running hash: word-wise FNV-1a with a
// shift-xor diffusion round after the multiply (the callers apply mix64
// once at the end). The diffusion step is load-bearing for correctness,
// not just quality: under plain (h^v)*prime, a difference confined to a
// word's top byte stays in the running hash's top byte forever —
// d·2^56·prime mod 2^64 = (d·0xb3 mod 256)·2^56 — so several corrupted
// words whose deltas sit in bits 56..63 can cancel mod 256, a ~1/256
// state-fingerprint collision instead of 2^-64. (The VM fuzzer found
// exactly that: an injected run with 1<<56 in four registers hashed
// equal to the golden arena and false-converged.) Folding the high half
// back down after each multiply breaks the closed subgroup: the next
// multiply spreads the delta full-width.
func absorb(h, v uint64) uint64 {
	h = (h ^ v) * fnvPrime
	return h ^ h>>32
}

// hashPage hashes one page's content under seed, implicitly zero-padding
// to the page size so clamped views (segment tails, stack high-water
// captures) hash identically to their fully materialized form. Four
// independent multiply lanes break the serial dependency chain, so the
// hash runs near memory speed rather than multiplier latency. Each lane
// applies the same shift-xor diffusion round as absorb — see there for
// why top-byte differences must not stay confined to the top byte. The
// round costs ~20% on this function in isolation (an 8-lane variant
// measured slower: the wider combine tail outweighs the ILP win on a
// 256-byte page) and is noise-level on campaign throughput.
func hashPage(seed uint64, b []byte) uint64 {
	if len(b) != pageSize {
		var buf [pageSize]byte
		copy(buf[:], b)
		b = buf[:]
	}
	h0 := seed
	h1 := seed ^ 0xa5a5a5a5a5a5a5a5
	h2 := seed ^ 0x3c3c3c3c3c3c3c3c
	h3 := seed ^ 0x0f0f0f0f0f0f0f0f
	for i := 0; i < pageSize; i += 32 {
		h0 = (h0 ^ binary.LittleEndian.Uint64(b[i:])) * fnvPrime
		h0 ^= h0 >> 32
		h1 = (h1 ^ binary.LittleEndian.Uint64(b[i+8:])) * fnvPrime
		h1 ^= h1 >> 32
		h2 = (h2 ^ binary.LittleEndian.Uint64(b[i+16:])) * fnvPrime
		h2 ^= h2 >> 32
		h3 = (h3 ^ binary.LittleEndian.Uint64(b[i+24:])) * fnvPrime
		h3 ^= h3 >> 32
	}
	return mix64(h0 ^ mix64(h1) ^ mix64(h2)*3 ^ mix64(h3)*5)
}

// absorbOut folds the not-yet-hashed output suffix into the rolling
// output hash.
func (m *machine) absorbOut() {
	h := m.outH
	for _, b := range m.out[m.outHashed:] {
		h = (h ^ uint64(b)) * fnvPrime
	}
	m.outH = h
	m.outHashed = len(m.out)
}

// regsHash fingerprints the register arena, the call-frame structure and
// the stack pointer. Cost is proportional to the live register count, so
// it is paid only at convergence checks, never per instruction.
func (m *machine) regsHash() uint64 {
	h := fnvOffset
	h = absorb(h, uint64(len(m.frames)))
	for i := range m.frames {
		fr := &m.frames[i]
		h = absorb(h, uint64(fr.fn))
		h = absorb(h, uint64(fr.pc))
		h = absorb(h, uint64(fr.regBase))
		h = absorb(h, uint64(len(fr.regs)))
		h = absorb(h, uint64(fr.savedSP))
		rd := uint64(fr.retDst)
		if fr.hasRet {
			rd |= 1 << 32
		}
		h = absorb(h, rd)
	}
	h = absorb(h, uint64(m.sp))
	for _, v := range m.regArena[:m.regTop] {
		h = absorb(h, v)
	}
	return mix64(h)
}

// recordTraceEntry appends the golden run's state fingerprint for the
// boundary at m.dyn. Called by takeSnapshot with the interval's page
// deltas (whose contents captureDelta already copied), so trace recording
// re-hashes exactly the dirtied pages and nothing else.
func (m *machine) recordTraceEntry(gd, sd pageDelta) {
	m.memH ^= m.globals.foldDelta(gd)
	m.memH ^= m.stack.foldDelta(sd)
	m.absorbOut()
	m.rec.entries = append(m.rec.entries, traceEntry{
		dyn:       m.dyn,
		readSlots: m.readSlots,
		writes:    m.writes,
		memH:      m.memH,
		regsH:     m.regsHash(),
		outH:      m.outH,
		outLen:    uint64(len(m.out)),
	})
}

// scheduleConv arms the convergence checks once the run's injections are
// complete: the first check lands on the first golden boundary at or
// after the current instant. The schedule depends only on the injection
// completion point, so it is identical across worker counts, snapshot
// fast-forwarding and dispatch variants, and so is whether the run
// converges.
func (m *machine) scheduleConv() {
	m.convSched = true
	m.convStride = 1
	es := m.trace.entries
	m.convIdx = sort.Search(len(es), func(i int) bool { return es[i].dyn >= m.dyn })
	if m.convIdx >= len(es) {
		m.nextConv = noConv
		return
	}
	m.nextConv = es[m.convIdx].dyn
}

// checkConverge runs one convergence check at the boundary the event
// horizon stopped on. It returns true when the state reconverged with
// the golden run and the run is over (m.converged, golden outcome
// installed). On divergence the next check backs off exponentially in
// boundaries, so runs that never reconverge pay O(log n) checks.
func (m *machine) checkConverge() bool {
	es := m.trace.entries
	for m.convIdx < len(es) && es[m.convIdx].dyn < m.dyn {
		m.convIdx++
	}
	if m.convIdx >= len(es) {
		m.nextConv = noConv
		return false
	}
	e := &es[m.convIdx]
	if e.dyn > m.dyn {
		m.nextConv = e.dyn
		return false
	}

	// At the boundary: bring the incremental fingerprint up to date and
	// compare against the golden entry. The register hash is the
	// expensive part (it walks the live arena), so it is computed only
	// when the memory and output fingerprints already match — runs
	// diverging in memory (the typical SDC) pay only the fold.
	m.memH ^= m.globals.foldDirty()
	m.memH ^= m.stack.foldDirty()
	m.absorbOut()
	if m.memH == e.memH && uint64(len(m.out)) == e.outLen && m.outH == e.outH &&
		m.regsHash() == e.regsH {
		m.convergeFinish(e)
		return true
	}

	// Back off exponentially, capped: uncapped doubling would effectively
	// stop checking long divergent runs and miss faults that die late in
	// the tail, while checking every boundary would tax runs that never
	// reconverge. The cap keeps the worst case at ~boundaries/cap cheap
	// fold-and-compare checks.
	m.convIdx += m.convStride
	if m.convStride < convStrideCap {
		m.convStride *= 2
	}
	if m.convIdx >= len(es) {
		m.nextConv = noConv
	} else {
		m.nextConv = es[m.convIdx].dyn
	}
	return false
}

// convStrideCap bounds the exponential back-off of memory-divergent
// convergence checks, in golden boundaries: uncapped back-off would
// effectively stop checking long divergent runs and miss faults whose
// corrupted memory is overwritten late.
const convStrideCap = 64

// convergeFinish terminates a converged run with the golden outcome. The
// machine state at boundary e is bit-identical to the golden state, so
// the continuation is the golden continuation: final output, stop reason
// and counters follow without executing it. Counters are adjusted by the
// golden suffix rather than overwritten — an injected run may reach the
// convergence point over a different path with different candidate
// counts, and the suffix delta is exact either way. Run reports the
// trace's final output for a converged run; the machine's own buffer is
// left as it is.
func (m *machine) convergeFinish(e *traceEntry) {
	t := m.trace
	m.readSlots += t.finalReadSlots - e.readSlots
	m.writes += t.finalWrites - e.writes
	m.dyn = t.finalDyn
	m.stop = t.finalStop
	m.converged = true
}
