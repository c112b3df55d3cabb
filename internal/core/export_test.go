package core

import (
	"sync"
	"testing"
)

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

// OpenCampaignJournal opens campaign fp's journal in dir for the drainer
// worker, as a Service does: a view of the directory log (or, resuming,
// of the campaign's own older file), whose Bind starts the campaign over
// unless resume is set.
func OpenCampaignJournal(dir, worker string, fp uint64, resume bool, opts FileJournalOptions) (*FileJournal, error) {
	return openCampaign(dir, worker, fp, resume, opts)
}

// EngineFingerprint exposes the campaign content address to the
// classifier-identity tests.
func EngineFingerprint(e *Engine) uint64 { return e.fingerprint() }

// RereadEnv makes the next use read MULTIFLIP_CHAOS_PANIC and
// MULTIFLIP_JOURNAL_FAULTS again, for a test that sets them with
// t.Setenv; the process's own readings come back when the test ends.
func RereadEnv(t *testing.T) {
	chaos, faults := chaosPanic, envFaultPlan
	chaosPanic, envFaultPlan = sync.OnceValues(chaosPanicEnv), sync.OnceValues(faultPlanEnv)
	t.Cleanup(func() { chaosPanic, envFaultPlan = chaos, faults })
}
