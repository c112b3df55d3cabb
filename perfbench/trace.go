package main

// Outside-in tracing. Every span is recorded by this package around a
// call into one of the library's public functions or interfaces; the
// library itself is unchanged. Per-experiment spans come from the
// engine's own loop: the benchmark hands the engine wrappers through its
// existing seams (FaultModel, StaticPredictor, Classifier, Journal) and
// times the calls the engine makes into them.

import (
	"sort"
	"sync"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// spanName is a span's interned name; a span costs 32 bytes.
type spanName uint8

const (
	spPass spanName = iota
	spBuild
	spAnalyze
	spTarget
	spCampaign
	spPlan
	spPredict
	spExec
	spClassify
	spJournalOpen
	spBind
	spClaim
	spRenew
	spCheckpoint
	spResults
	spJournalClose
	spMemoOpen
	spMemoFlush
	spMemfault
	spStudyRun
	spTransitions
	spAblations
	spRender
	numSpanNames
)

// spanInfo names each span and the layer its self time is charged to.
var spanInfo = [numSpanNames]struct{ name, layer string }{
	spPass:         {"bench.pass", "bench"},
	spBuild:        {"prog.build", "prog"},
	spAnalyze:      {"liveness.analyze", "liveness"},
	spTarget:       {"core.target", "core"},
	spCampaign:     {"core.campaign", "core"},
	spPlan:         {"core.plan", "core"},
	spPredict:      {"liveness.predict", "liveness"},
	spExec:         {"vm.exec", "vm"},
	spClassify:     {"core.classify", "core"},
	spJournalOpen:  {"core.journal.open", "core.journal"},
	spBind:         {"core.journal.bind", "core.journal"},
	spClaim:        {"core.journal.claim", "core.journal"},
	spRenew:        {"core.journal.renew", "core.journal"},
	spCheckpoint:   {"core.journal.checkpoint", "core.journal"},
	spResults:      {"core.journal.results", "core.journal"},
	spJournalClose: {"core.journal.close", "core.journal"},
	spMemoOpen:     {"core.memo.open", "core.memo"},
	spMemoFlush:    {"core.memo.flush", "core.memo"},
	spMemfault:     {"memfault.campaign", "memfault"},
	spStudyRun:     {"study.run", "study"},
	spTransitions:  {"study.transitions", "study"},
	spAblations:    {"study.ablations", "study"},
	spRender:       {"study.render", "study"},
}

func (n spanName) String() string { return spanInfo[n].name }

// span is one timed call. Times are nanoseconds since the tracer's
// epoch. id is the experiment index for per-experiment spans and the
// campaign number for campaign-level spans.
type span struct {
	start, end int64
	id         uint64
	parent     int32 // index into the tracer's spans; -1 for a root
	name       spanName
}

func (s span) dur() int64 { return s.end - s.start }

// pending is an experiment between its plan and its record: the engine
// runs it on one worker goroutine, but the classifier and the model's
// Record see only the run result and the experiment record, so the
// wrappers re-associate the calls by candidate index.
type pending struct {
	idx       uint64
	parent    int32
	execStart int64
	resumeDyn uint64
}

// classified remembers one Classify call until the engine records the
// experiment it judged.
type classified struct{ start, end int64 }

// execStats are the vm-layer counters gathered per executed experiment.
type execStats struct {
	executed   int     // experiments that reached vm.Run
	converged  int     // runs the VM ended on reconvergence
	instr      uint64  // Result.Dyn minus the resume snapshot's Dyn
	skipped    uint64  // fault-free prefix skipped by snapshot resume
	prefix     uint64  // fault-free prefix before the first injection
	execNs     []int64 // per executed experiment
	predicts   int     // StaticPredictor calls
	pruned     int     // predictions that classified without running
	checkpts   int     // Journal.Checkpoint calls
	claimWaits int     // ClaimWait replies
	campaignNs []int64 // per campaign call
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads have one code path.
type tracer struct {
	epoch time.Time

	mu         sync.Mutex
	spans      []span
	inflight   map[uint64][]pending
	classified map[*vm.Result]classified
	st         execStats
}

func newTracer() *tracer {
	return &tracer{
		epoch:      time.Now(),
		inflight:   make(map[uint64][]pending),
		classified: make(map[*vm.Result]classified),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name spanName, parent int32, id uint64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: -1, id: id, parent: parent, name: name})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes the span begin opened.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	if t.spans[i].name == spCampaign {
		t.st.campaignNs = append(t.st.campaignNs, t.spans[i].dur())
	}
	t.mu.Unlock()
}

// add records a span whose ends are already known.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// model wraps a fault model so its calls are timed as children of the
// campaign span. The wrapper implements core.StaticPredictor exactly
// when the inner model does, so the engine prunes the same experiments.
func (t *tracer) model(inner core.FaultModel, campaign int32) core.FaultModel {
	if t == nil {
		return inner
	}
	m := &tracedModel{inner: inner, t: t, parent: campaign}
	if sp, ok := inner.(core.StaticPredictor); ok {
		return &tracedPredictor{tracedModel: m, sp: sp}
	}
	return m
}

// classifier wraps the default classifier. The wrapper keeps the
// inner Name ("exact"), so campaign fingerprints, journals and memo
// files are unchanged by tracing.
func (t *tracer) classifier() core.Classifier {
	if t == nil {
		return nil
	}
	return &tracedClassifier{inner: core.ExactClassifier{}, t: t}
}

// journal wraps a campaign journal.
func (t *tracer) journal(inner core.Journal, campaign int32) core.Journal {
	if t == nil {
		return inner
	}
	return &tracedJournal{inner: inner, t: t, parent: campaign}
}

type tracedModel struct {
	inner  core.FaultModel
	t      *tracer
	parent int32
}

func (m *tracedModel) Prefix() string   { return m.inner.Prefix() }
func (m *tracedModel) Describe() string { return m.inner.Describe() }

func (m *tracedModel) Validate(tg *core.Target, n int) error { return m.inner.Validate(tg, n) }

func (m *tracedModel) Plan(tg *core.Target, idx uint64, rng *xrand.Rand) core.Injection {
	t := m.t
	start := t.now()
	inj := m.inner.Plan(tg, idx, rng)
	end := t.now()
	p := pending{idx: idx, parent: m.parent, execStart: end}
	if inj.Resume != nil {
		p.resumeDyn = inj.Resume.Dyn
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, id: idx, parent: m.parent, name: spPlan})
	t.inflight[inj.Cand] = append(t.inflight[inj.Cand], p)
	t.mu.Unlock()
	return inj
}

// Record closes the experiment's vm.exec span: it started when planning
// (or a declined prediction) returned and ended when the engine moved
// on to classification, or straight to Record for a memo-resolved run.
func (m *tracedModel) Record(exp *core.Experiment, res *vm.Result) {
	t := m.t
	recStart := t.now()
	t.mu.Lock()
	p, ok := t.popPending(exp.Cand)
	c, judged := t.classified[res]
	if judged {
		delete(t.classified, res)
	}
	if ok {
		execEnd := recStart
		if judged {
			execEnd = c.start
			t.spans = append(t.spans, span{start: c.start, end: c.end, id: p.idx, parent: p.parent, name: spClassify})
		}
		t.spans = append(t.spans, span{start: p.execStart, end: execEnd, id: p.idx, parent: p.parent, name: spExec})
		st := &t.st
		st.executed++
		st.execNs = append(st.execNs, execEnd-p.execStart)
		if res.Converged {
			st.converged++
		}
		if res.Dyn > p.resumeDyn {
			st.instr += res.Dyn - p.resumeDyn
		}
		if len(res.InjectionDyns) > 0 {
			st.prefix += res.InjectionDyns[0]
			st.skipped += p.resumeDyn
		}
	}
	t.mu.Unlock()
	m.inner.Record(exp, res)
}

// popPending takes the newest in-flight experiment planned at cand. Two
// experiments share a candidate only by chance; they then share the
// resume snapshot too, so only the span's id can be swapped. Callers
// hold t.mu.
func (t *tracer) popPending(cand uint64) (pending, bool) {
	ps := t.inflight[cand]
	if len(ps) == 0 {
		return pending{}, false
	}
	p := ps[len(ps)-1]
	if len(ps) == 1 {
		delete(t.inflight, cand)
	} else {
		t.inflight[cand] = ps[:len(ps)-1]
	}
	return p, true
}

type tracedPredictor struct {
	*tracedModel
	sp core.StaticPredictor
}

func (m *tracedPredictor) PredictStatic(tg *core.Target, inj *core.Injection) (core.Experiment, bool) {
	t := m.t
	start := t.now()
	exp, ok := m.sp.PredictStatic(tg, inj)
	end := t.now()
	t.mu.Lock()
	t.st.predicts++
	var idx uint64
	if ps := t.inflight[inj.Cand]; len(ps) > 0 {
		p := &ps[len(ps)-1]
		idx = p.idx
		p.execStart = end
	}
	t.spans = append(t.spans, span{start: start, end: end, id: idx, parent: m.parent, name: spPredict})
	if ok {
		t.st.pruned++
		t.popPending(inj.Cand)
	}
	t.mu.Unlock()
	return exp, ok
}

type tracedClassifier struct {
	inner core.Classifier
	t     *tracer
}

func (c *tracedClassifier) Name() string { return c.inner.Name() }

func (c *tracedClassifier) Classify(golden []byte, res *vm.Result) core.Outcome {
	t := c.t
	start := t.now()
	o := c.inner.Classify(golden, res)
	end := t.now()
	t.mu.Lock()
	t.classified[res] = classified{start: start, end: end}
	t.mu.Unlock()
	return o
}

type tracedJournal struct {
	inner  core.Journal
	t      *tracer
	parent int32
}

func (j *tracedJournal) timed(name spanName, f func()) {
	start := j.t.now()
	f()
	j.t.add(span{start: start, end: j.t.now(), parent: j.parent, name: name})
}

func (j *tracedJournal) Bind(meta core.CampaignMeta) (err error) {
	j.timed(spBind, func() { err = j.inner.Bind(meta) })
	return err
}

func (j *tracedJournal) Claim(worker string, ttl time.Duration) (shard int, state core.ClaimState, err error) {
	j.timed(spClaim, func() { shard, state, err = j.inner.Claim(worker, ttl) })
	if state == core.ClaimWait {
		j.t.mu.Lock()
		j.t.st.claimWaits++
		j.t.mu.Unlock()
	}
	return shard, state, err
}

func (j *tracedJournal) Renew(worker string, shard int, ttl time.Duration) (err error) {
	j.timed(spRenew, func() { err = j.inner.Renew(worker, shard, ttl) })
	return err
}

func (j *tracedJournal) Checkpoint(res core.ShardResult) (err error) {
	j.timed(spCheckpoint, func() { err = j.inner.Checkpoint(res) })
	j.t.mu.Lock()
	j.t.st.checkpts++
	j.t.mu.Unlock()
	return err
}

func (j *tracedJournal) Results() (rs []*core.ShardResult, err error) {
	j.timed(spResults, func() { rs, err = j.inner.Results() })
	return rs, err
}

func (j *tracedJournal) Status() (core.CampaignStatus, error) { return j.inner.Status() }

func (j *tracedJournal) Close() (err error) {
	j.timed(spJournalClose, func() { err = j.inner.Close() })
	return err
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
// ivs is sorted in place.
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children may overlap one another (parallel
// workers under one campaign span); their union is what is subtracted.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[int32(i)], s.start, s.end)
	}
	return self
}

// unattributed returns the time within each root span that no other
// span covers, summed over roots, and the roots' total duration.
func unattributed(spans []span) (gap, total int64) {
	var ivs []interval
	for _, s := range spans {
		if s.parent >= 0 {
			ivs = append(ivs, interval{s.start, s.end})
		}
	}
	for _, s := range spans {
		if s.parent < 0 {
			total += s.dur()
			gap += s.dur() - covered(ivs, s.start, s.end)
		}
	}
	return gap, total
}
