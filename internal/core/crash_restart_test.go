package core_test

// The crash/restart differential harness: the PR's center of gravity.
// A journaled campaign is repeatedly killed at randomized experiment
// boundaries — Engine.Interrupt through the experimentHook seam is the
// in-process analogue of SIGKILL: workers stop dead between
// experiments, in-flight shards are abandoned un-checkpointed — and
// resumed from its journal directory's log, sometimes with the log's
// tail torn off first (a crash mid-write). Whatever the kill/resume history, the
// finally-completed campaign must be bit-identical to an uninterrupted
// run, for every fault model.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/tiercontract"
	"multiflip/internal/xrand"
)

// TestCrashRestartDifferential kills and resumes journaled campaigns at
// randomized boundaries until one run completes, then compares the
// completed result against the uninterrupted baseline: experiments,
// tallies, histograms and the converged count bit for bit.
func TestCrashRestartDifferential(t *testing.T) {
	const (
		n          = 96
		shardSize  = 8
		maxRounds  = 40 // safety margin; killed rounds stop at killRounds
		killRounds = 30
	)
	faultsBefore := core.FaultInjections()
	for _, prog := range []string{"qsort", "CRC32"} {
		tg := target(t, prog)
		for _, m := range engineModels() {
			t.Run(prog+"/"+m.name, func(t *testing.T) {
				baseline := func() *core.EngineResult {
					eng := m.engine(tg)
					eng.N = n
					eng.Seed = 5
					eng.Record = true
					res, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}()

				dir := t.TempDir()
				rng := xrand.New(uint64(len(prog)) + uint64(len(m.name))<<8)
				var final *core.EngineResult
				for round := 0; round < maxRounds; round++ {
					eng := m.engine(tg)
					eng.N = n
					eng.Seed = 5
					eng.Record = true
					eng.Workers = 2
					// The TTL is short so a resumed round can quickly steal the
					// leases its killed predecessor still holds (production
					// resumes wait out DefaultLeaseTTL the same way, just
					// longer). A live worker losing a lease to the short TTL is
					// harmless: checkpointing is idempotent.
					// LeaseGrace is off: every simulated process shares this
					// test's clock, so the cross-process skew margin would only
					// slow each steal of a killed round's lease by the default
					// grace.
					eng.Service = &core.Service{
						Dir:        dir,
						Resume:     true,
						ShardSize:  shardSize,
						LeaseTTL:   100 * time.Millisecond,
						LeaseGrace: -1,
						WorkerID:   fmt.Sprintf("round-%d", round),
					}
					// Crash rounds: kill the campaign after a random number of
					// experiment starts, and stress the journal itself with a
					// deterministic I/O fault schedule — the retry layer must
					// survive the injected ENOSPC/EIO/short-write/fsync failures
					// without corrupting the campaign. Late rounds run unharmed
					// (and unfaulted) so the loop terminates even if early
					// kills make no shard progress.
					var restore func()
					if round < killRounds {
						eng.Service.Fault = &core.FaultPlan{Seed: 0xC0 + uint64(round), Permille: 60}
						kill := int64(1 + rng.Intn(3*shardSize))
						var started atomic.Int64
						restore = core.SetExperimentHook(func(idx int) {
							if started.Add(1) == kill {
								eng.Interrupt()
							}
						})
					}
					res, err := eng.Run()
					if restore != nil {
						restore()
					}
					if err == nil {
						final = res
						break
					}
					// Faulted rounds may die of the injected journal faults
					// instead of the interrupt (retry exhaustion is an error,
					// not corruption); a clean round may not fail at all.
					if round >= killRounds {
						t.Fatalf("clean round %d: %v", round, err)
					} else if !errors.Is(err, core.ErrInterrupted) {
						t.Logf("round %d died of injected journal faults: %v", round, err)
					}
					// Sometimes tear the journal's tail off — a crash can lose
					// the end of the last write; it must never lose the
					// campaign.
					if rng.Intn(2) == 0 {
						tearJournalTail(t, dir, rng)
					}
				}
				if final == nil {
					t.Fatal("campaign never completed")
				}
				tiercontract.SameResult(t, "crash/restart differential", baseline, final, true)
			})
		}
	}
	// Non-vacuity: the kill rounds' fault plans must actually have fired
	// — a differential that never saw an injected journal fault proves
	// nothing about the retry layer.
	if core.FaultInjections() == faultsBefore {
		t.Error("no journal faults were injected across the crash rounds")
	}
}

// tearJournalTail truncates up to a few dozen bytes off the journal
// directory's log, simulating a torn final write. A directory without a
// log fails the test: the round before wrote one.
func tearJournalTail(t *testing.T, dir string, rng *xrand.Rand) {
	t.Helper()
	path := filepath.Join(dir, "journal.mfj")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("no journal log to tear: %v", err)
	}
	cut := int64(rng.Intn(40))
	if cut > fi.Size() {
		cut = fi.Size()
	}
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}
}
