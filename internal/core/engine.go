package core

// The experiment engine: the paper's §III-E methodology is one loop —
// sample a fault, run the workload, classify the outcome — repeated N
// times per campaign. This file owns everything fault-class-independent
// about that loop: the worker pool, batched experiment claiming,
// per-worker sharded aggregation, failure collection, golden-run
// fast-forwarding plumbing and convergence-trace wiring. A FaultModel
// contributes only the fault class itself: what one experiment injects
// and how its record is finalized. Register bit-flip campaigns
// (RegisterModel, campaign.go), memory-word faults (memfault.Model) and
// stuck-at register faults (StuckAtModel, stuckat.go) are all thin
// models over the one engine, and every caller runs a campaign by
// building an Engine with its model.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// maxClaimBatch bounds the claim batch: past a few hundred indices per
// claim the counter is already cold and bigger batches only worsen tail
// imbalance.
const maxClaimBatch = 256

// claimSpread is the number of claim rounds the batch aims to give each
// worker over the indices that remain: enough re-claims to rebalance
// around slow experiments, few enough to keep the counter cold.
const claimSpread = 4

// autoClaimBatch returns the number of experiment indices a worker
// claims in one atomic operation when n indices remain unclaimed. At
// tens of thousands of experiments per second a single shared counter
// bumped once per experiment is measurable contention; claiming chunks
// amortizes it. The batch is n/(workers·claimSpread), clamped to [1,
// maxClaimBatch]: a run's first claims stop at maxClaimBatch, and the
// batch shrinks as the run drains, down to one index per claim over its
// last workers·claimSpread indices, so the run's tail is split finely
// between the workers instead of waiting on one large final batch.
// Batches only affect scheduling — experiment i always draws its random
// stream from (Seed, i) — so results are bit-identical for any batch;
// the invariance test varies the worker count, and with it the batches.
func autoClaimBatch(n, workers int) int {
	b := n / (workers * claimSpread)
	if b < 1 {
		return 1
	}
	if b > maxClaimBatch {
		return maxClaimBatch
	}
	return b
}

// claimNext claims the next batch [lo, hi) of a run's n experiment
// indices from the shared counter next, sized by autoClaimBatch over the
// indices still unclaimed. ok is false once every index is claimed.
func claimNext(next *atomic.Int64, n, workers int) (lo, hi int, ok bool) {
	for {
		cur := next.Load()
		if cur >= int64(n) {
			return 0, 0, false
		}
		b := int64(autoClaimBatch(n-int(cur), workers))
		if next.CompareAndSwap(cur, cur+b) {
			return int(cur), int(cur + b), true
		}
	}
}

// ErrInterrupted reports a campaign stopped by Engine.Interrupt before
// every experiment ran. A journaled campaign keeps its completed shard
// checkpoints; running a new Engine with Service.Resume folds them and
// continues.
var ErrInterrupted = errors.New("core: campaign interrupted")

// FaultModel plugs one fault class into the Engine. Implementations
// describe a single experiment's injection; the engine owns workers,
// claiming, execution, classification (Engine.Classifier), aggregation
// and convergence. A model must be safe for concurrent use:
// Plan is called from every worker.
type FaultModel interface {
	// Prefix labels engine errors ("core", "memfault", "stuckat").
	Prefix() string
	// Describe renders the model's full parameterization as a stable
	// string: it feeds the campaign fingerprint (journal content
	// addressing) and is stored in the journal meta record, so two model
	// values must agree on it exactly when they plan identical
	// experiments.
	Describe() string
	// Validate checks the model's parameters against the prepared target
	// and the engine's experiment count before any experiment runs.
	Validate(t *Target, n int) error
	// Plan derives experiment idx's injection from the experiment's
	// private random stream. Any randomness beyond the returned fragment
	// (e.g. bit positions sampled at activation time) continues on the
	// same rng inside the VM, so a model's sampling stays deterministic
	// per (seed, idx) regardless of scheduling. rng belongs to the
	// worker: it stays valid until the experiment ends, and the engine
	// reseeds it for the next one.
	Plan(t *Target, idx uint64, rng *xrand.Rand) Injection
	// Record finalizes the experiment record from the raw run result.
	// The engine has already set Cand (from the Injection), Outcome and
	// Trap. exp and res, and the slices res holds (Output,
	// InjectionDyns), are valid only during the call: the engine reuses
	// them for the worker's next experiment.
	Record(exp *Experiment, res *vm.Result)
}

// Injection is the vm.Options fragment a FaultModel contributes for one
// experiment: the fault mechanism plus the golden-run snapshot it may
// fast-forward from.
type Injection struct {
	// Cand identifies the first injection in the model's candidate space
	// (recorded as Experiment.Cand).
	Cand uint64
	// Plan is the register-fault plan (nil for memory-fault models).
	Plan *vm.Plan
	// MemFlips are scheduled memory-word corruptions (nil for register
	// models).
	MemFlips []vm.MemFlip
	// Resume is the golden-run snapshot to fast-forward from; nil replays
	// the fault-free prefix from instruction 0.
	Resume *vm.Snapshot
}

// Engine runs N experiments of one FaultModel over one target: the
// model-independent half of every campaign type, and the only way to
// run a campaign. A caller builds an Engine with its model
// (RegisterModel, StuckAtModel, memfault.Model or its own), sets the
// engine-level parameters below and calls Run; the model carries only
// its own fault parameters.
type Engine struct {
	// Target is the prepared workload.
	Target *Target
	// Model contributes the per-experiment fault mechanism.
	Model FaultModel
	// N is the number of experiments.
	N int
	// Seed makes the run reproducible: experiment i draws its private
	// random stream from (Seed, i) regardless of scheduling.
	Seed uint64
	// HangFactor scales the fault-free dynamic instruction count into the
	// hang budget (0 = DefaultHangFactor).
	HangFactor uint64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Record keeps per-experiment records in the result (the transition
	// study needs them).
	Record bool
	// NoAlignTrap disables the misaligned-access exception (alignment
	// ablation).
	NoAlignTrap bool
	// Classifier judges golden-vs-actual output when classifying
	// outcomes (nil = ExactClassifier, the paper's byte comparison). A
	// non-default classifier folds into the campaign fingerprint, so
	// its journals never mix with differently classified ones.
	Classifier Classifier
	// FailurePolicy decides what happens to an experiment that fails or
	// panics at every supervision tier (supervise.go): FailFast (default)
	// aborts the run, Quarantine poisons the experiment and keeps
	// draining. The choice folds into the campaign fingerprint only when
	// non-default, so existing journals keep their content addresses.
	FailurePolicy FailurePolicy
	// Service, when set (and naming a journal or directory), turns the
	// run into a durable campaign: experiments execute in journal shards
	// with per-shard checkpoints, interrupted runs resume from the last
	// checkpoint, and concurrent processes drain the same campaign via
	// lease stealing.
	Service *Service

	// interrupted is set by Interrupt and never cleared: workers stop
	// claiming work and the run returns ErrInterrupted. Journaled
	// campaigns keep their checkpoints.
	interrupted atomic.Bool
}

// Interrupt stops the campaign at the next experiment boundary, and Run
// returns ErrInterrupted. The interrupt sticks: called before Run, it
// makes Run return ErrInterrupted without running any experiment, so
// an interrupted Engine is not reused. For a journaled campaign it is
// the in-process analogue of SIGKILL: completed shards stay
// checkpointed, the in-flight shard is abandoned un-checkpointed. Safe
// to call from any goroutine, including an experimentHook.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// EngineResult aggregates an engine run: the outcome statistics (via
// Tally), histograms and early-exit counters of every fault model live
// in one place. CampaignResult embeds it next to the register model's
// parameters.
type EngineResult struct {
	// Tally holds the per-outcome counts and derives the percentage and
	// confidence-interval statistics (N, Pct, SDCPct, DetectionPct, CI95,
	// Resilience).
	Tally
	// CrashActivated histograms the number of activated errors of
	// experiments that ended in a hardware exception, capped at
	// ActivatedCap (Fig 3's distribution).
	CrashActivated [ActivatedCap + 1]int
	// TrapCounts indexes OutcomeException experiments by vm.TrapKind,
	// breaking the paper's exception category into segmentation faults,
	// misaligned accesses, arithmetic errors, aborts and stack overflows.
	TrapCounts [NumTrapKinds]int
	// ActivatedTotal sums activated errors over all experiments.
	ActivatedTotal int
	// Converged counts experiments the VM terminated early because their
	// injected state reconverged with the golden run. Each experiment
	// converges on its own, so the count is deterministic per (target,
	// model, seed) for any worker count, journaled or resumed.
	Converged int
	// MemoHits is always zero.
	//
	// Deprecated: campaigns keep no fault-equivalence memo.
	MemoHits int
	// StaticPruned is always zero.
	//
	// Deprecated: campaigns prune nothing statically; every experiment
	// executes.
	StaticPruned int
	// Experiments holds per-experiment records when Record is set.
	Experiments []Experiment
	// Quarantined holds the repro records of experiments poisoned under
	// the Quarantine failure policy, sorted by experiment index. Their
	// outcomes are tallied under OutcomeInternal; an empty slice is the
	// healthy case.
	Quarantined []QuarantineRecord
}

// engineShard is one worker's private aggregate. Workers never touch a
// shared tally or histogram mid-run; shards merge once after the pool
// drains, so the hot loop performs no cross-core writes beyond the
// batched claim counter. The aggregate itself is a ShardResult — the
// same associative unit journaled campaigns checkpoint per shard.
type engineShard struct {
	ShardResult
	// Pad past a cache line so adjacent shards in the slice never share
	// one (the struct tail and the next shard's head are both hot).
	_ [64]byte
}

// experimentHook, when non-nil, is called with each claimed experiment
// index before it runs. Test seam: the error-propagation tests use it to
// hold workers at a barrier so several fail concurrently.
var experimentHook func(idx int)

// Run executes the experiments. They run in parallel but the result is
// identical for any worker count: every experiment derives its private
// random stream from (Seed, experiment index). With an active Service
// the run executes as a journaled campaign (runJournaled); otherwise it
// stays on the in-memory fast path. After Interrupt, Run returns
// ErrInterrupted.
func (e *Engine) Run() (*EngineResult, error) {
	if e.Target == nil {
		return nil, fmt.Errorf("core: engine needs a target")
	}
	if e.Model == nil {
		return nil, fmt.Errorf("core: engine needs a fault model")
	}
	if e.N <= 0 {
		return nil, fmt.Errorf("core: engine needs N > 0")
	}
	if err := e.Model.Validate(e.Target, e.N); err != nil {
		return nil, err
	}
	if _, err := chaosPanic(); err != nil {
		return nil, err
	}
	if e.interrupted.Load() {
		return nil, ErrInterrupted
	}
	if e.Service.active() {
		return e.runJournaled()
	}
	n := e.N
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var exps []Experiment
	if e.Record {
		exps = make([]Experiment, n)
	}
	shards := make([]engineShard, workers)
	ladder := e.ladder()
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
		errs   []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sh *engineShard) {
			defer wg.Done()
			w := getWorker()
			defer putWorker(w)
			for {
				// Batched claiming: one atomic op hands this worker a chunk
				// of indices instead of a single experiment.
				lo, hi, ok := claimNext(&next, n, workers)
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					// The failed check gates every experiment: once any
					// worker errors, the whole run's result is discarded, so
					// its peers must stop instead of finishing the grid for
					// nothing.
					if failed.Load() || e.interrupted.Load() {
						return
					}
					exp, converged, quar, err := e.runSupervised(uint64(i), w, ladder)
					if err != nil {
						// Every worker's failure is collected: a grid-wide
						// abort with several concurrent causes surfaces all
						// of them (errors.Join), not just whichever lost the
						// race.
						errMu.Lock()
						errs = append(errs, err)
						errMu.Unlock()
						failed.Store(true)
						return
					}
					if quar != nil {
						sh.Quarantined = append(sh.Quarantined, *quar)
					}
					sh.Add(&exp, converged)
					if exps != nil {
						exps[i] = exp
					}
				}
			}
		}(&shards[w])
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if e.interrupted.Load() {
		return nil, ErrInterrupted
	}

	res := &EngineResult{Experiments: exps}
	for i := range shards {
		res.Fold(&shards[i].ShardResult, 0)
	}
	// Per-worker shards accumulate quarantine records in claim order;
	// sorting makes the folded result scheduling-independent.
	sortQuarantined(res.Quarantined)
	return res, nil
}

// runJournaled executes the campaign through its Service: experiments
// run in journal shards, each checkpointed on completion, with already
// checkpointed shards folded from the journal instead of re-run. Worker
// goroutines claim shards through the journal's lease protocol, so any
// number of cooperating processes can drain one campaign: leases
// minimize duplicate work, determinism makes the duplicates that do
// happen (after a lease steal) harmless, and idempotent checkpointing
// keeps every shard counted exactly once.
func (e *Engine) runJournaled() (*EngineResult, error) {
	svc := e.Service
	n := e.N
	shardSize := svc.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	ttl := svc.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	workerID := svc.WorkerID
	if workerID == "" {
		workerID = defaultWorkerID()
	}

	fp := e.fingerprint()
	j, ownJournal, err := svc.journalFor(fp, workerID)
	if err != nil {
		return nil, err
	}
	if ownJournal {
		defer j.Close()
	}

	meta := CampaignMeta{
		Fingerprint: fp,
		Model:       e.Model.Describe(),
		N:           n,
		ShardSize:   shardSize,
		Seed:        e.Seed,
		Record:      e.Record,
	}
	if err := j.Bind(meta); err != nil {
		return nil, err
	}
	numShards := meta.NumShards()

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numShards {
		workers = numShards
	}

	ladder := e.ladder()
	var (
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
		errs   []error
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := getWorker()
			defer putWorker(w)
			for {
				if failed.Load() || e.interrupted.Load() {
					return
				}
				shard, state, err := j.Claim(workerID, ttl)
				if err != nil {
					fail(err)
					return
				}
				switch state {
				case ClaimDrained:
					return
				case ClaimWait:
					// Peers hold every remaining shard; wait for a
					// completion or an expired lease to steal.
					time.Sleep(time.Millisecond)
					continue
				}
				lo, hi := meta.Span(shard)
				sr := ShardResult{Shard: shard}
				if e.Record {
					sr.Experiments = make([]Experiment, 0, hi-lo)
				}
				// Lease heartbeat: once ~TTL/3 has elapsed (jittered per
				// shard and worker so co-renewing workers don't beat in
				// sync), renew at the next experiment boundary. Slow shards
				// — degraded-tier retries, compile-disabled targets, megapixel —
				// then outlive the TTL without being stolen. Renewal is
				// advisory like the lease itself: a failed renew means a
				// peer may steal and duplicate the shard, which determinism
				// plus idempotent checkpointing already make harmless.
				leaseAt := time.Now()
				renewAfter := ttl/3 + time.Duration(mixBytes(uint64(shard)+1, []byte(workerID))%uint64(ttl/6+1))
				for i := lo; i < hi; i++ {
					// An interrupt (or a peer's failure) abandons the shard
					// without a checkpoint: a partial shard is never
					// journaled, so resume re-runs it from its start.
					if failed.Load() || e.interrupted.Load() {
						return
					}
					if time.Since(leaseAt) >= renewAfter {
						_ = j.Renew(workerID, shard, ttl)
						leaseAt = time.Now()
					}
					exp, converged, quar, err := e.runSupervised(uint64(i), w, ladder)
					if err != nil {
						fail(err)
						return
					}
					if quar != nil {
						sr.Quarantined = append(sr.Quarantined, *quar)
					}
					sr.Add(&exp, converged)
					if e.Record {
						sr.Experiments = append(sr.Experiments, exp)
					}
				}
				if err := j.Checkpoint(sr); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if e.interrupted.Load() {
		return nil, ErrInterrupted
	}

	// Every worker saw ClaimDrained, so each shard has its accepted
	// checkpoint — ours or a peer's. Fold them: shard merging is
	// associative and order-independent, so the result is identical to an
	// uninterrupted single-process run.
	results, err := j.Results()
	if err != nil {
		return nil, err
	}
	if len(results) != numShards {
		return nil, fmt.Errorf("%s: journal drained with %d/%d shards checkpointed", e.Model.Prefix(), len(results), numShards)
	}
	res := &EngineResult{}
	if e.Record {
		res.Experiments = make([]Experiment, n)
	}
	for _, sr := range results {
		res.Fold(sr, sr.Shard*shardSize)
	}
	// Checkpoints fold in journal order; sort so the result matches the
	// in-memory path bit for bit.
	sortQuarantined(res.Quarantined)
	return res, nil
}

// classifier returns the engine's classifier with the default applied.
func (e *Engine) classifier() Classifier {
	if e.Classifier == nil {
		return ExactClassifier{}
	}
	return e.Classifier
}

// worker is one engine goroutine's reusable execution context. An
// executed experiment runs on the worker's vm.Runner, draws from the
// worker's generator (reseeded in place to the experiment's (Seed, idx)
// stream), and is planned and recorded through fields the worker keeps,
// so it allocates nothing of its own beyond its plan. Workers are
// pooled across engine runs: a study's short campaigns reuse machines
// and tracking buffers.
type worker struct {
	runner vm.Runner
	rng    xrand.Rand
	inj    Injection
	exp    Experiment
}

var workerPool = sync.Pool{New: func() any { return new(worker) }}

// getWorker takes a pooled worker for one engine goroutine of a run.
func getWorker() *worker { return workerPool.Get().(*worker) }

// putWorker parks w when its goroutine exits. It drops every reference
// to the run's target and results, so a pooled worker pins nothing of a
// finished campaign.
func putWorker(w *worker) {
	w.runner.Reset()
	w.inj = Injection{}
	workerPool.Put(w)
}

// runOne performs experiment idx at one supervision tier on worker w and
// reports whether the VM ended it early by convergence with the golden
// run. Callers go through runSupervised (supervise.go), which
// panic-isolates each attempt and degrades the tier on failure.
func (e *Engine) runOne(idx uint64, w *worker, disable vm.Tiers) (Experiment, bool, error) {
	t := e.Target
	w.rng.SeedExperiment(e.Seed, idx)
	w.inj = e.Model.Plan(t, idx, &w.rng)
	inj := &w.inj

	// The deprecated StaticPredictor seam is still called, once per
	// experiment, for callers that wrap and time it; its answer is
	// ignored.
	if sp, ok := e.Model.(StaticPredictor); ok {
		sp.PredictStatic(t, inj)
	}

	hangFactor := e.HangFactor
	if hangFactor == 0 {
		hangFactor = DefaultHangFactor
	}
	res, err := w.runner.Run(t.Prog, vm.Options{
		MaxDyn:      hangFactor*t.GoldenDyn + 1000,
		MaxOutput:   4*len(t.Golden) + 4096,
		NoAlignTrap: e.NoAlignTrap,
		Plan:        inj.Plan,
		MemFlips:    inj.MemFlips,
		Resume:      inj.Resume,
		Disable:     disable,
		Trace:       t.Trace,
	})
	if err != nil {
		return Experiment{}, false, fmt.Errorf("%s: %s experiment %d: %w", e.Model.Prefix(), t.Name, idx, err)
	}
	w.exp = Experiment{Cand: inj.Cand}
	exp := &w.exp
	if res.Stop == vm.StopTrap {
		exp.Trap = res.Trap
	}
	exp.Outcome = e.classifier().Classify(t.Golden, res)
	e.Model.Record(exp, res)
	return *exp, res.Converged, nil
}
