package core

import "multiflip/internal/vm"

// SetExperimentHook installs the worker-claim test seam and returns a
// restore function. The error-propagation tests use it to hold workers at
// a barrier so several fail concurrently.
func SetExperimentHook(h func(idx int)) (restore func()) {
	experimentHook = h
	return func() { experimentHook = nil }
}

// AutoClaimBatch exposes the claim-batch auto-tuner to the invariance
// and property tests.
var AutoClaimBatch = autoClaimBatch

// MaxClaimBatch exposes the auto-tuner's upper clamp.
const MaxClaimBatch = maxClaimBatch

// ClaimSpread exposes the claim rounds per worker the batch aims for.
const ClaimSpread = claimSpread

// ClaimNext exposes the engine's claim of the next batch of indices.
var ClaimNext = claimNext

// FaultInjections exposes the process-wide injected-fault counter, so
// fault-plan tests can assert non-vacuity (their schedule actually
// fired).
func FaultInjections() int64 { return faultsInjected.Load() }

// EngineFingerprint exposes the campaign content address to the
// classifier-identity tests.
func EngineFingerprint(e *Engine) uint64 { return e.fingerprint() }

// EngineMemoFingerprint exposes the memo content address to the
// classifier-identity tests.
func EngineMemoFingerprint(e *Engine) uint64 { return e.memoFingerprint() }

// MemoStore stores one shared-memo entry the way a campaign does: the
// entry is queued for the next Flush.
func MemoStore(m *SharedMemo, k vm.StateKey, outcome Outcome, trap vm.TrapKind) {
	m.store(k, memoVal{outcome: outcome, trap: trap})
}

// MemoLookup returns a shared memo's entry for a state.
func MemoLookup(m *SharedMemo, k vm.StateKey) (Outcome, vm.TrapKind, bool) {
	v, ok := m.load(k)
	return v.outcome, v.trap, ok
}

// MemoLen counts a shared memo's entries.
func MemoLen(m *SharedMemo) int {
	n := 0
	m.m.Range(func(any, any) bool { n++; return true })
	return n
}

// MemoAbsorb reads the records appended to a shared memo's file since
// its last read, as a Service does before each campaign.
func MemoAbsorb(m *SharedMemo) error { return m.absorb() }
