package core

// The campaign journal: the durable half of the campaign service. A
// journaled campaign is split into fixed experiment shards — contiguous
// index spans, the batched claim unit the engine already schedules by —
// and the journal records three kinds of events: the campaign's identity
// (CampaignMeta), shard leases (which worker is running which shard, and
// until when), and shard checkpoints (a completed shard's aggregate,
// ShardResult). Because every experiment derives its randomness from
// (Seed, index) alone, a shard's result is a pure function of the
// campaign parameters: re-running a shard after a crash, or on a
// different worker, reproduces it bit-identically. That makes the whole
// scheme idempotent — the journal accepts the first checkpoint per shard
// and drops duplicates, so lease stealing and crash/restart cycles can
// execute a shard several times without ever double-counting it.
//
// Leases are advisory, not locks: they minimize duplicate work, they do
// not guard correctness. A worker that stalls past its lease's expiry
// loses the shard to a peer; if it later finishes anyway, its checkpoint
// is either the accepted one or an identical duplicate.
//
// Two implementations exist: MemJournal (in-process, used by tests and
// by multiple drainers sharing one process) and FileJournal
// (journal_file.go: one campaign's records in an append-only log of
// checksummed records — a journal directory's log, shared by every
// campaign journaled there and by worker processes — or in a file of
// its own).

import (
	"fmt"
	"sync"
	"time"
)

// DefaultShardSize is the number of experiments per journal shard: the
// granularity of checkpointing, resume and lease stealing.
const DefaultShardSize = 64

// DefaultLeaseTTL is the shard lease duration. It must exceed the
// worst-case wall-clock time of one shard; an expired lease invites a
// peer to re-run the shard (correct but wasted work).
//
// Cross-process contract: a lease's expiry is stamped by the claiming
// process's clock and judged by the observing process's clock. Within
// one process the comparison uses Go's monotonic clock and is exact;
// across processes it is wall-clock arithmetic, so drainers sharing a
// journal directory must keep their clocks within the lease grace
// margin (DefaultLeaseGrace, or Service.LeaseGrace) of each other.
// Clock skew never breaks correctness — checkpoints are idempotent and
// shard results deterministic — it only costs duplicate work (a lease
// stolen early) or idle waiting (a lease honored late).
const DefaultLeaseTTL = 30 * time.Second

// DefaultLeaseGrace is the slack added to lease expiries stamped by
// other processes before a lease is considered expired, covering
// wall-clock skew between drainers. Larger values delay legitimate
// steals from crashed peers by the same margin; smaller values risk
// premature steals (duplicate work) when clocks disagree.
const DefaultLeaseGrace = 2 * time.Second

// CampaignMeta identifies a journaled campaign. The fingerprint is
// content-addressed over the target's behaviour (golden output, dynamic
// profile), the fault model's parameters and the engine knobs that can
// influence recorded results, so a journal can never silently resume a
// different campaign.
type CampaignMeta struct {
	// Fingerprint is the campaign's content address (Engine.fingerprint).
	Fingerprint uint64 `json:"fp"`
	// Model is the fault model's self-description (FaultModel.Describe),
	// kept for inspection and as a fingerprint cross-check.
	Model string `json:"model"`
	// N is the campaign's experiment count.
	N int `json:"n"`
	// ShardSize is the experiments per shard.
	ShardSize int `json:"shard"`
	// Seed is the campaign seed.
	Seed uint64 `json:"seed"`
	// Record marks a campaign whose checkpoints carry per-experiment
	// records.
	Record bool `json:"record"`
}

// NumShards returns the campaign's shard count.
func (m *CampaignMeta) NumShards() int {
	if m.ShardSize <= 0 || m.N <= 0 {
		return 0
	}
	return (m.N + m.ShardSize - 1) / m.ShardSize
}

// Span returns shard's experiment index range [lo, hi).
func (m *CampaignMeta) Span(shard int) (lo, hi int) {
	lo = shard * m.ShardSize
	hi = lo + m.ShardSize
	if hi > m.N {
		hi = m.N
	}
	return lo, hi
}

// equal reports whether two metas describe the same campaign.
func (m *CampaignMeta) equal(o *CampaignMeta) bool {
	return m.Fingerprint == o.Fingerprint && m.Model == o.Model &&
		m.N == o.N && m.ShardSize == o.ShardSize &&
		m.Seed == o.Seed && m.Record == o.Record
}

// ShardResult is one shard's aggregate: the associative unit campaign
// results are folded from. Workers accumulate one per claimed shard and
// checkpoint it; resumed campaigns fold stored ShardResults instead of
// re-running their experiments. The fields mirror EngineResult's
// aggregates (EngineResult.Fold merges one in).
type ShardResult struct {
	// Shard is the shard index; the experiment span follows from
	// CampaignMeta.Span.
	Shard int `json:"s"`
	// Tally holds the shard's per-outcome counts.
	Tally Tally `json:"tally"`
	// Crash is the shard's slice of the crash-activation histogram.
	Crash [ActivatedCap + 1]int `json:"crash"`
	// Traps is the shard's slice of the per-trap-kind counters.
	Traps [NumTrapKinds]int `json:"traps"`
	// Activated sums activated errors over the shard's experiments.
	Activated int `json:"act"`
	// Converged counts convergence-terminated experiments in the shard.
	// Journals written while campaigns kept a fault-equivalence memo
	// also carry a "memo" count, and those written while they pruned
	// statically dead flips a "spruned" count; both are ignored on load.
	Converged int `json:"conv"`
	// Experiments holds the shard's per-experiment records, in index
	// order, when the campaign records them (nil otherwise).
	Experiments []Experiment `json:"exps,omitempty"`
	// Quarantined holds the repro records of the shard's poisoned
	// experiments (Quarantine failure policy), in index order. Omitted
	// when empty, so journals written before the supervision layer
	// existed — and the overwhelmingly common healthy shard — are
	// unchanged on disk and load with zero quarantined.
	Quarantined []QuarantineRecord `json:"quar,omitempty"`
}

// Add folds one experiment into the shard aggregate. converged reports
// whether the experiment ended early by convergence with the golden run.
func (s *ShardResult) Add(exp *Experiment, converged bool) {
	s.Tally.AddDim(exp.Outcome, exp.Bit, exp.Dir)
	s.Activated += exp.Activated
	if exp.Outcome == OutcomeException {
		a := exp.Activated
		if a > ActivatedCap {
			a = ActivatedCap
		}
		if a >= 0 {
			s.Crash[a]++
		}
		if int(exp.Trap) >= 0 && int(exp.Trap) < NumTrapKinds {
			s.Traps[exp.Trap]++
		}
	}
	if converged {
		s.Converged++
	}
}

// Fold merges one shard aggregate into the result; lo is the shard's
// first experiment index (recorded experiments land at [lo, lo+len)).
// Folding is associative and commutative over disjoint shards — every
// field is a sum, a histogram of sums, or an index-placed record — so
// shards checkpoint independently and merge in any order and grouping.
func (r *EngineResult) Fold(s *ShardResult, lo int) {
	r.Tally.Merge(&s.Tally)
	for a, c := range s.Crash {
		r.CrashActivated[a] += c
	}
	for k, c := range s.Traps {
		r.TrapCounts[k] += c
	}
	r.ActivatedTotal += s.Activated
	r.Converged += s.Converged
	r.Quarantined = append(r.Quarantined, s.Quarantined...)
	if r.Experiments != nil && len(s.Experiments) > 0 && lo >= 0 && lo+len(s.Experiments) <= len(r.Experiments) {
		copy(r.Experiments[lo:], s.Experiments)
	}
}

// ClaimState is the outcome of a Journal.Claim call.
type ClaimState int

// Claim outcomes.
const (
	// ClaimOK: a shard was leased to the caller.
	ClaimOK ClaimState = iota
	// ClaimWait: nothing is claimable right now — the remaining shards
	// are leased to live workers. Retry after a short delay: a lease may
	// expire (steal it) or its shard may complete.
	ClaimWait
	// ClaimDrained: every shard is checkpointed.
	ClaimDrained
)

// CampaignStatus is a point-in-time snapshot of a journaled campaign:
// shard progress plus the running tally over checkpointed shards. Because
// shard merging is associative, the snapshot is exact for the completed
// portion — a live campaign can be watched mid-flight.
type CampaignStatus struct {
	// Shards is the total shard count; Done, Leased and Pending partition
	// it (Leased counts unexpired leases on incomplete shards).
	Shards, Done, Leased, Pending int
	// ExperimentsTotal and ExperimentsDone count experiments; Done covers
	// exactly the checkpointed shards.
	ExperimentsTotal, ExperimentsDone int
	// Tally is the running outcome tally over checkpointed shards.
	Tally Tally
	// Converged sums the early-exit counter over checkpointed shards.
	Converged int
	// Quarantined counts experiments poisoned under the Quarantine
	// failure policy across checkpointed shards.
	Quarantined int
	// Leases lists the live leases on incomplete shards — who is running
	// what, and for how much longer — in shard order. len(Leases) ==
	// Leased.
	Leases []LeaseInfo
}

// LeaseInfo describes one live shard lease in a status snapshot. For
// leases restored from journal records (other processes' workers) the
// remaining time is wall-clock arithmetic including the skew grace
// margin, so it can exceed the TTL by up to that margin.
type LeaseInfo struct {
	// Shard is the leased shard's index.
	Shard int
	// Worker is the lease holder's worker ID.
	Worker string
	// Remaining is the time until the lease may be stolen.
	Remaining time.Duration
}

// Journal records a campaign's durable state: its identity, shard leases
// and shard checkpoints. Implementations must be safe for concurrent use
// — every engine worker claims and checkpoints through the one journal —
// and must keep completion idempotent: the first checkpoint per shard
// wins, duplicates are dropped. MemJournal and FileJournal implement it;
// the interface is the seam for future backends (a database, an object
// store).
type Journal interface {
	// Bind attaches the journal to a campaign, creating the record if the
	// journal is empty and validating the identity if it is not: binding
	// a journal that holds a different campaign is an error.
	Bind(meta CampaignMeta) error
	// Claim leases one incomplete shard to worker for ttl, preferring
	// unleased shards and stealing expired leases (lowest index first).
	Claim(worker string, ttl time.Duration) (shard int, state ClaimState, err error)
	// Renew extends worker's live lease on shard by ttl from now: the
	// heartbeat a worker sends at experiment boundaries so a shard slower
	// than the TTL is not stolen mid-run. A renewal that no longer
	// applies — the shard completed, or the lease expired and was stolen
	// — is dropped without error: like the lease itself, renewal is
	// advisory and never guards correctness.
	Renew(worker string, shard int, ttl time.Duration) error
	// Checkpoint records a completed shard. The first checkpoint per
	// shard is accepted; later ones are dropped without error (shard
	// results are deterministic, so duplicates are identical).
	Checkpoint(res ShardResult) error
	// Results returns the accepted checkpoint of every completed shard.
	Results() ([]*ShardResult, error)
	// Status snapshots the campaign's progress.
	Status() (CampaignStatus, error)
	// Close releases the journal's resources. The campaign state itself
	// stays (durable backends keep it on disk; MemJournal keeps it in
	// memory for the process lifetime).
	Close() error
}

// journalState is the shard bookkeeping shared by MemJournal and
// FileJournal. Callers hold the owning journal's lock.
type journalState struct {
	meta   CampaignMeta
	bound  bool
	shards []shardState
	now    func() time.Time
	// grace is the slack granted to lease expiries read from other
	// processes (wall-clock timestamps with no monotonic reading): 0
	// selects DefaultLeaseGrace, negative disables the margin. Leases
	// applied locally carry Go's monotonic clock and get no grace.
	grace time.Duration
}

// shardState tracks one shard: its accepted checkpoint (nil while
// pending) and the latest lease. leaseLocal marks an expiry stamped by
// this process — a monotonic-clock time.Time that compares exactly —
// as opposed to one restored from a journal record, which is wall-clock
// only and is judged with the skew grace margin.
type shardState struct {
	res         *ShardResult
	leaseWorker string
	leaseExp    time.Time
	leaseLocal  bool
}

// init installs or validates the campaign identity.
func (st *journalState) init(meta CampaignMeta) error {
	if meta.N <= 0 || meta.ShardSize <= 0 {
		return fmt.Errorf("core: journal meta needs N > 0 and ShardSize > 0")
	}
	if st.bound {
		if !st.meta.equal(&meta) {
			return fmt.Errorf("core: journal holds a different campaign: %q n=%d seed=%d (want %q n=%d seed=%d)",
				st.meta.Model, st.meta.N, st.meta.Seed, meta.Model, meta.N, meta.Seed)
		}
		return nil
	}
	st.meta = meta
	st.bound = true
	st.shards = make([]shardState, meta.NumShards())
	return nil
}

// applyLease records worker's lease on shard until exp. local marks an
// expiry stamped by this process's clock (monotonic, exact); a record read
// back that echoes the lease this process already holds — same worker,
// same millisecond — is dropped so re-reading our own journal writes
// never downgrades a monotonic expiry to a wall-clock one.
func (st *journalState) applyLease(shard int, worker string, exp time.Time, local bool) {
	if !st.bound || shard < 0 || shard >= len(st.shards) {
		return
	}
	sh := &st.shards[shard]
	if sh.res != nil {
		return
	}
	if !local && sh.leaseLocal && worker == sh.leaseWorker &&
		exp.UnixMilli() == sh.leaseExp.UnixMilli() {
		return
	}
	sh.leaseWorker = worker
	sh.leaseExp = exp
	sh.leaseLocal = local
}

// leaseDeadline returns the instant the shard's lease may be stolen:
// the stamped expiry, stretched by the skew grace margin for leases
// restored from journal records (wall-clock only). The zero time means
// no lease.
func (st *journalState) leaseDeadline(sh *shardState) time.Time {
	if sh.leaseWorker == "" {
		return time.Time{}
	}
	exp := sh.leaseExp
	if !sh.leaseLocal {
		grace := st.grace
		if grace == 0 {
			grace = DefaultLeaseGrace
		}
		if grace > 0 {
			exp = exp.Add(grace)
		}
	}
	return exp
}

// leaseLive reports whether the shard's lease holds at now: exact for
// leases this process stamped, stretched by the skew grace margin for
// leases restored from journal records.
func (st *journalState) leaseLive(sh *shardState, now time.Time) bool {
	return st.leaseDeadline(sh).After(now)
}

// renewable reports whether worker may extend its lease on shard: the
// shard is still incomplete and the worker still holds a live lease on
// it. A renewal after a steal or a completion must be dropped — it would
// stomp the thief's lease or waste a record on a done shard.
func (st *journalState) renewable(shard int, worker string) bool {
	if !st.bound || shard < 0 || shard >= len(st.shards) {
		return false
	}
	sh := &st.shards[shard]
	return sh.res == nil && sh.leaseWorker == worker && st.leaseLive(sh, st.now())
}

// applyDone accepts a shard checkpoint unless the shard already has one
// or the record is inconsistent with the campaign meta (a corrupt or
// foreign record; conservatively dropped — the shard just re-runs).
func (st *journalState) applyDone(res *ShardResult) bool {
	if !st.bound || res.Shard < 0 || res.Shard >= len(st.shards) {
		return false
	}
	sh := &st.shards[res.Shard]
	if sh.res != nil {
		return false
	}
	lo, hi := st.meta.Span(res.Shard)
	if res.Tally.N() != hi-lo {
		return false
	}
	if st.meta.Record && len(res.Experiments) != hi-lo {
		return false
	}
	if !st.meta.Record && len(res.Experiments) != 0 {
		return false
	}
	sh.res = res
	return true
}

// findClaim picks the next claimable shard: the lowest-index incomplete
// shard that is unleased or whose lease expired. It does not record the
// lease — the caller persists a lease record first, then applies it.
func (st *journalState) findClaim() (int, ClaimState) {
	if !st.bound {
		return 0, ClaimWait
	}
	now := st.now()
	allDone := true
	for i := range st.shards {
		sh := &st.shards[i]
		if sh.res != nil {
			continue
		}
		allDone = false
		if !st.leaseLive(sh, now) {
			return i, ClaimOK
		}
	}
	if allDone {
		return 0, ClaimDrained
	}
	return 0, ClaimWait
}

// results returns the accepted checkpoints in shard order.
func (st *journalState) results() []*ShardResult {
	out := make([]*ShardResult, 0, len(st.shards))
	for i := range st.shards {
		if st.shards[i].res != nil {
			out = append(out, st.shards[i].res)
		}
	}
	return out
}

// status snapshots progress.
func (st *journalState) status() CampaignStatus {
	s := CampaignStatus{
		Shards:           len(st.shards),
		ExperimentsTotal: st.meta.N,
	}
	now := st.now()
	for i := range st.shards {
		sh := &st.shards[i]
		switch {
		case sh.res != nil:
			s.Done++
			lo, hi := st.meta.Span(i)
			s.ExperimentsDone += hi - lo
			s.Tally.Merge(&sh.res.Tally)
			s.Converged += sh.res.Converged
			s.Quarantined += len(sh.res.Quarantined)
		case st.leaseLive(sh, now):
			s.Leased++
			s.Leases = append(s.Leases, LeaseInfo{
				Shard:     i,
				Worker:    sh.leaseWorker,
				Remaining: st.leaseDeadline(sh).Sub(now),
			})
		default:
			s.Pending++
		}
	}
	s.Pending = s.Shards - s.Done - s.Leased
	return s
}

// MemJournal is the in-process Journal: campaign state in memory, shared
// by any number of drainers in one process. It backs the lease-steal and
// crash-harness tests and serves as the reference implementation; it is
// also the cheapest way to watch a live in-process campaign
// (Journal.Status from another goroutine).
type MemJournal struct {
	mu sync.Mutex
	st journalState
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal {
	return &MemJournal{st: journalState{now: time.Now}}
}

// Bind implements Journal.
func (j *MemJournal) Bind(meta CampaignMeta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.init(meta)
}

// Claim implements Journal.
func (j *MemJournal) Claim(worker string, ttl time.Duration) (int, ClaimState, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	shard, state := j.st.findClaim()
	if state == ClaimOK {
		j.st.applyLease(shard, worker, j.st.now().Add(ttl), true)
	}
	return shard, state, nil
}

// Renew implements Journal.
func (j *MemJournal) Renew(worker string, shard int, ttl time.Duration) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.renewable(shard, worker) {
		j.st.applyLease(shard, worker, j.st.now().Add(ttl), true)
	}
	return nil
}

// Checkpoint implements Journal.
func (j *MemJournal) Checkpoint(res ShardResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.applyDone(&res)
	return nil
}

// Results implements Journal.
func (j *MemJournal) Results() ([]*ShardResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.results(), nil
}

// Status implements Journal.
func (j *MemJournal) Status() (CampaignStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.st.bound {
		return CampaignStatus{}, fmt.Errorf("core: journal is not bound to a campaign")
	}
	return j.st.status(), nil
}

// Close implements Journal (a no-op: the state lives in memory).
func (j *MemJournal) Close() error { return nil }
