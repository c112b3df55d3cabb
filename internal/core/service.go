package core

// The campaign service: the configuration that turns an Engine run into
// a durable, resumable, multi-process job. A Service names a journal
// directory (or injects a Journal directly); the engine then executes
// through runJournaled — claiming shards, checkpointing them, folding
// stored results on resume — instead of the in-memory fast path.
//
// Every campaign journaled in a directory appends to the directory's
// one log, journal.mfj, each record tagged with the campaign's
// fingerprint, which digests the target's observable behaviour, the
// fault model's parameters and every engine knob that shapes the
// recorded result. The log is content-addressed by those tags, so
// resume needs no bookkeeping — re-running the same campaign command
// with -resume finds its own records, and a changed parameter journals
// under a fresh fingerprint instead of corrupting an old campaign.
//
// A Service is plain configuration: any number of campaigns, running
// one after another or at once, may share one or copy it. The campaigns
// of one process that share a directory and a worker ID also share one
// open log (journal_file.go). Directories written by older versions
// hold one campaign-<fingerprint>.mfj file per campaign: a resumed
// campaign keeps journaling into its file, and one run without resume
// deletes it and starts over in the log. They may also hold
// memo-<fingerprint>.mfj files, from when campaigns kept a
// fault-equivalence memo; nothing reads them any more.

import (
	"fmt"
	"os"
	"time"

	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// Service configures journaled campaign execution. A zero/nil Service —
// or one with neither Journal nor Dir — leaves the engine on its
// in-memory fast path.
type Service struct {
	// Dir is the journal directory: its log holds the records of every
	// campaign journaled there, content-addressed by fingerprint.
	Dir string
	// Resume folds the checkpoints the campaign already has in the
	// journal instead of re-running them. Without Resume, the campaign
	// starts fresh: its earlier records stop counting.
	Resume bool
	// Journal, when non-nil, overrides Dir for the campaign journal: the
	// engine binds this journal directly (in-process drainers share a
	// MemJournal this way). The caller owns its lifecycle.
	Journal Journal
	// Memo is ignored.
	//
	// Deprecated: campaigns keep no fault-equivalence memo.
	Memo *SharedMemo
	// WorkerID identifies this process in shard leases (empty =
	// "hostname:pid").
	WorkerID string
	// ShardSize is the experiments per shard (0 = DefaultShardSize).
	ShardSize int
	// LeaseTTL is the shard lease duration (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LeaseGrace is the wall-clock skew margin granted to shard leases
	// stamped by other processes before they are considered expired
	// (0 = DefaultLeaseGrace, negative = none). See DefaultLeaseTTL for
	// the cross-process clock contract.
	LeaseGrace time.Duration
	// Sync fsyncs the journal log after every checkpoint and meta
	// append, and fsyncs the directory when the log is created,
	// so acknowledged checkpoints survive machine-level crashes (power
	// loss). Off by default: without it a crash can lose the unsynced
	// log tail, which deterministic shard re-execution repairs on the
	// next resume at the cost of duplicate work.
	Sync bool
	// Fault, when set, injects a deterministic I/O failure schedule into
	// the journal log's file (FaultFile) — the robustness-test and chaos-CI
	// knob. Nil falls back to the MULTIFLIP_JOURNAL_FAULTS environment
	// plan, if any. Injected faults never change campaign results, only
	// exercise the retry and recovery paths.
	Fault *FaultPlan
}

// active reports whether the service routes campaigns through a journal.
func (s *Service) active() bool {
	return s != nil && (s.Journal != nil || s.Dir != "")
}

// journalFor opens the campaign journal for an engine whose campaign
// has fingerprint fp, drained by worker: the injected Journal if set,
// else the campaign's journal in Dir. The second return reports
// ownership (the engine closes journals it opened).
func (s *Service) journalFor(fp uint64, worker string) (Journal, bool, error) {
	if s.Journal != nil {
		return s.Journal, false, nil
	}
	j, err := openCampaign(s.Dir, worker, fp, s.Resume, FileJournalOptions{Sync: s.Sync, LeaseGrace: s.LeaseGrace, Fault: s.Fault})
	if err != nil {
		return nil, false, err
	}
	return j, true, nil
}

// defaultWorkerID identifies this process in shard leases.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// mix folds one value into a fingerprint (SplitMix64 diffusion).
func mix(h, v uint64) uint64 {
	st := h ^ v
	return xrand.SplitMix64(&st)
}

// mixBytes folds a byte string into a fingerprint via FNV-1a.
func mixBytes(h uint64, b []byte) uint64 {
	f := uint64(14695981039346656037)
	for _, c := range b {
		f = (f ^ uint64(c)) * 1099511628211
	}
	return mix(h, f)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fingerprint is the campaign's content address: the target's
// observable behaviour (name, golden output, dynamic profile,
// candidate-space sizes), the execution budgets, the exception surface,
// the outcome classifier, the fault model's self-description and every
// engine knob that shapes the recorded result. Two engines agree on it
// exactly when their campaigns are interchangeable
// experiment-for-experiment.
//
// The default classifier contributes nothing, so campaign journals
// written before the classifier seam existed keep their content
// addresses and resume unchanged.
func (e *Engine) fingerprint() uint64 {
	t := e.Target
	hangFactor := e.HangFactor
	if hangFactor == 0 {
		hangFactor = DefaultHangFactor
	}
	h := uint64(0x6d756c7469666c69) // "multifli"
	h = mixBytes(h, []byte(t.Name))
	h = mix(h, t.GoldenDyn)
	h = mix(h, t.ReadCands)
	h = mix(h, t.WriteCands)
	h = mixBytes(h, t.Golden)
	h = mix(h, hangFactor)
	h = mix(h, b2u(e.NoAlignTrap))
	if name := e.classifier().Name(); name != "exact" {
		h = mixBytes(h, []byte(name))
	}
	h = mixBytes(h, []byte(e.Model.Describe()))
	h = mix(h, uint64(e.N))
	h = mix(h, e.Seed)
	h = mix(h, b2u(e.Record))
	// Of the target's tier set only converge folds in, so journals keep
	// their content addresses whatever else is disabled. The set includes
	// MULTIFLIP_DISABLE's tiers, so a campaign run with convergence off,
	// by either switch, never folds a journal written with it on.
	h = mix(h, b2u(e.Target.Disable.Has(vm.TierConverge)))
	// The failure policy folds in only when non-default: FailFast
	// campaigns — every journal written before the policy existed — keep
	// their content addresses, while a Quarantine campaign (whose stored
	// checkpoints may carry poisoned experiments) never resumes into a
	// FailFast journal or vice versa.
	if e.FailurePolicy != FailFast {
		h = mixBytes(h, []byte("onfail="+e.FailurePolicy.String()))
	}
	return h
}
