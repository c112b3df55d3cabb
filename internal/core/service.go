package core

// The campaign service: the configuration that turns an Engine run into
// a durable, resumable, multi-process job. A Service names a journal
// directory (or injects a Journal directly); the engine then executes
// through runJournaled — claiming shards, checkpointing them, folding
// stored results on resume — instead of the in-memory fast path.
//
// Files in the journal directory are content-addressed: the campaign
// journal is campaign-<fingerprint>.mfj where the fingerprint digests
// the target's observable behaviour, the fault model's parameters and
// every engine knob that shapes the recorded result. Resume therefore
// needs no bookkeeping — re-running the same campaign command with
// -resume finds its own journal, and a changed parameter lands in a
// fresh file instead of corrupting an old campaign.
//
// The directory also carries memo-<fingerprint>.mfj: the cross-campaign
// fault-equivalence memo. Its fingerprint deliberately excludes the
// fault model and campaign parameters — a memo entry maps a
// post-injection VM state to the outcome of running the program to
// completion from that state, which depends only on the program's
// behaviour and the execution budgets. Campaigns with different
// techniques, fault models or seeds over the same target share one memo
// file, which is what makes the memo a shared cache rather than a
// per-run optimization.
//
// A Service keeps every memo it opens for its lifetime. The first
// campaign over a target reads the memo file whole; each later campaign
// first absorbs only the records appended since, by this process or a
// peer, and every campaign flushes its new entries when it ends. Share
// one Service across a program's campaigns, also while several of them
// run at once (the study keeps one per program), and do not copy a
// Service after first use.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// Service configures journaled campaign execution. A zero/nil Service —
// or one with neither Journal nor Dir — leaves the engine on its
// in-memory fast path. A Service must not be copied after first use.
type Service struct {
	// Dir is the journal directory: campaign journals and shared memo
	// files are content-addressed inside it.
	Dir string
	// Resume keeps an existing campaign journal and folds its checkpoints
	// instead of re-running them. Without Resume, an existing journal for
	// the same campaign is discarded and the campaign starts fresh.
	Resume bool
	// Journal, when non-nil, overrides Dir for the campaign journal: the
	// engine binds this journal directly (in-process drainers share a
	// MemJournal this way). The caller owns its lifecycle.
	Journal Journal
	// Memo, when non-nil, overrides the Dir-derived memo file.
	// The caller owns its lifecycle.
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
	// Sync fsyncs the campaign journal after every checkpoint and meta
	// append, and fsyncs the directory when a journal file is created,
	// so acknowledged checkpoints survive machine-level crashes (power
	// loss). Off by default: without it a crash can lose the unsynced
	// log tail, which deterministic shard re-execution repairs on the
	// next resume at the cost of duplicate work.
	Sync bool
	// Fault, when set, injects a deterministic I/O failure schedule into
	// the campaign journal (FaultFile) — the robustness-test and chaos-CI
	// knob. Nil falls back to the MULTIFLIP_JOURNAL_FAULTS environment
	// plan, if any. Injected faults never change campaign results, only
	// exercise the retry and recovery paths.
	Fault *FaultPlan

	// memos keeps every shared memo opened under Dir, by path, for the
	// Service's lifetime.
	memoMu sync.Mutex
	memos  map[string]*SharedMemo
}

// active reports whether the service routes campaigns through a journal.
func (s *Service) active() bool {
	return s != nil && (s.Journal != nil || s.Dir != "")
}

// journalFor opens the campaign journal for an engine: the injected
// Journal if set, else the content-addressed file under Dir. The second
// return reports ownership (the engine closes journals it opened).
func (s *Service) journalFor(e *Engine) (Journal, bool, error) {
	if s.Journal != nil {
		return s.Journal, false, nil
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("core: journal dir: %w", err)
	}
	path := filepath.Join(s.Dir, fmt.Sprintf("campaign-%016x.mfj", e.fingerprint()))
	if !s.Resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, false, fmt.Errorf("core: reset journal: %w", err)
		}
	}
	j, err := OpenFileJournalOpts(path, FileJournalOptions{Sync: s.Sync, LeaseGrace: s.LeaseGrace, Fault: s.Fault})
	if err != nil {
		return nil, false, err
	}
	return j, true, nil
}

// memoFor returns the shared memo for an engine: the injected Memo if
// set, else the content-addressed file under Dir. A memo the Service
// opened stays open across campaigns; each later campaign first absorbs
// only the records appended since the last one, by this process or a
// peer. The second return reports whether the engine flushes the memo
// when the campaign ends (the caller owns an injected Memo). A nil
// table means the caller should fall back to a private in-memory memo.
func (s *Service) memoFor(e *Engine) (*SharedMemo, bool, error) {
	if s.Memo != nil {
		return s.Memo, false, nil
	}
	if s.Dir == "" {
		return nil, false, nil
	}
	path := filepath.Join(s.Dir, fmt.Sprintf("memo-%016x.mfj", e.memoFingerprint()))
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if m, ok := s.memos[path]; ok {
		if err := m.absorb(); err != nil {
			return nil, false, err
		}
		return m, true, nil
	}
	m, err := OpenSharedMemo(path)
	if err != nil {
		return nil, false, err
	}
	if s.memos == nil {
		s.memos = make(map[string]*SharedMemo)
	}
	s.memos[path] = m
	return m, true, nil
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

// memoFingerprint digests everything a memo entry's validity depends on:
// the target's observable behaviour (name, golden output, dynamic
// profile, candidate-space sizes) plus the execution budgets, the
// exception surface and the outcome classifier (a memoized continuation
// outcome is a classification). Fault model, technique, N and seed are
// deliberately absent — a memoized continuation outcome holds for any
// campaign that reaches the same post-injection state.
//
// The default classifier contributes nothing, so memo files and
// campaign journals written before the classifier seam existed keep
// their content addresses and resume unchanged.
func (e *Engine) memoFingerprint() uint64 {
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
	return h
}

// fingerprint is the campaign's content address: the memo fingerprint
// plus the fault model's self-description and every engine knob that
// shapes the recorded result. Two engines agree on it exactly when their
// campaigns are interchangeable experiment-for-experiment.
func (e *Engine) fingerprint() uint64 {
	h := e.memoFingerprint()
	h = mixBytes(h, []byte(e.Model.Describe()))
	h = mix(h, uint64(e.N))
	h = mix(h, e.Seed)
	h = mix(h, b2u(e.Record))
	// Of the target's tier set only converge folds in, so journals keep
	// their content addresses whatever else is disabled;
	// MULTIFLIP_DISABLE is not recorded on the target and stays out.
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

// memoRec is the shared memo's on-disk record: one fault-equivalence
// fact, StateKey -> continuation outcome.
type memoRec struct {
	K vm.StateKey `json:"k"`
	V Outcome     `json:"v"`
	P vm.TrapKind `json:"p,omitempty"`
}

// SharedMemo is the cross-campaign fault-equivalence memo: a
// process-wide map mirrored to an append-only checksummed record file
// (same line codec as the journal). Campaigns sharing a memo skip the
// continuation of any post-injection state another campaign — or a
// previous process — already executed. Correctness never depends on the
// file's contents: entries are deterministic facts, a lost entry only
// costs a re-execution, and a torn line is skipped by the loader.
// FuzzMemoLoader pins this.
type SharedMemo struct {
	mu    sync.Mutex
	path  string
	m     sync.Map
	fresh []byte
	// tail is how far absorb has read the file.
	tail logTail
}

// OpenSharedMemo opens (creating on first Flush if needed) a shared memo
// file, loading every intact record. A missing file is an empty memo.
func OpenSharedMemo(path string) (*SharedMemo, error) {
	m := &SharedMemo{path: path}
	if err := m.absorb(); err != nil {
		return nil, err
	}
	return m, nil
}

// absorb loads the intact records appended to the memo file since the
// last absorb, by this process's flushes or by a peer's. A missing file
// holds no records yet.
func (m *SharedMemo) absorb() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := os.Open(m.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("core: open memo: %w", err)
	}
	defer f.Close()
	if err := m.tail.read(f, m.applyPayload); err != nil {
		return fmt.Errorf("core: read memo: %w", err)
	}
	return nil
}

// applyPayload loads one memo record, skipping anything malformed. The
// first record for a state wins; later ones (re-reads of our own
// flushes, or a peer's duplicate) hold the same deterministic outcome.
func (m *SharedMemo) applyPayload(payload []byte) {
	var rec memoRec
	if err := json.Unmarshal(payload, &rec); err != nil {
		return
	}
	m.m.LoadOrStore(rec.K, memoVal{outcome: rec.V, trap: rec.P})
}

// load implements memoTable.
func (m *SharedMemo) load(k vm.StateKey) (memoVal, bool) {
	v, ok := m.m.Load(k)
	if !ok {
		return memoVal{}, false
	}
	return v.(memoVal), true
}

// store implements memoTable: new entries are queued for the next Flush.
func (m *SharedMemo) store(k vm.StateKey, v memoVal) {
	if _, loaded := m.m.LoadOrStore(k, v); loaded {
		return
	}
	payload, err := json.Marshal(memoRec{K: k, V: v.outcome, P: v.trap})
	if err != nil {
		return
	}
	m.mu.Lock()
	m.fresh = appendLine(m.fresh, payload)
	m.mu.Unlock()
}

// Flush appends the entries stored since the last flush to the memo file
// with a single O_APPEND write, so concurrent processes interleave whole
// records.
func (m *SharedMemo) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.fresh) == 0 {
		return nil
	}
	f, err := os.OpenFile(m.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("core: flush memo: %w", err)
	}
	_, werr := f.Write(m.fresh)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("core: flush memo: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("core: flush memo: %w", cerr)
	}
	m.fresh = nil
	return nil
}

// Close flushes pending entries.
func (m *SharedMemo) Close() error { return m.Flush() }
