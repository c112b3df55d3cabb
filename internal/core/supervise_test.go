package core_test

// Supervised-execution tests: the failure-policy property (Quarantine
// with zero failures is bit-identical to FailFast), transient-panic
// degradation, persistent-failure quarantine with repro metadata, the
// FailFast tier-ladder error, and quarantine's round trip through a
// journaled resume.

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

func TestParseFailurePolicy(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want core.FailurePolicy
	}{
		{"", core.FailFast},
		{"fast", core.FailFast},
		{"failfast", core.FailFast},
		{"quarantine", core.Quarantine},
		{" quarantine ", core.Quarantine},
	} {
		got, err := core.ParseFailurePolicy(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := core.ParseFailurePolicy("explode"); err == nil {
		t.Error("ParseFailurePolicy accepted an unknown policy")
	}
	if core.FailFast.String() != "fast" || core.Quarantine.String() != "quarantine" {
		t.Error("FailurePolicy.String does not round-trip the flag spelling")
	}
}

// TestPolicyEquivalenceOnHealthyCampaign is the failure-policy property:
// on a campaign with zero failures, Quarantine must be bit-identical to
// FailFast — same tallies, same records, no quarantines — for every
// fault model. The policy may only matter when something actually
// breaks.
func TestPolicyEquivalenceOnHealthyCampaign(t *testing.T) {
	tg := target(t, "CRC32")
	for _, m := range engineModels() {
		t.Run(m.name, func(t *testing.T) {
			run := func(policy core.FailurePolicy) *core.EngineResult {
				eng := m.engine(tg)
				eng.N = 40
				eng.Seed = 17
				eng.Workers = 1
				eng.Record = true
				eng.FailurePolicy = policy
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fast := run(core.FailFast)
			quar := run(core.Quarantine)
			tiercontract.SameResult(t, "policy equivalence", fast, quar, true)
			if len(fast.Quarantined)+len(quar.Quarantined) != 0 {
				t.Fatalf("healthy campaign quarantined experiments: %d/%d",
					len(fast.Quarantined), len(quar.Quarantined))
			}
			if n := quar.Count(core.OutcomeInternal); n != 0 {
				t.Fatalf("healthy campaign tallied %d Internal outcomes", n)
			}
		})
	}
}

// TestTransientPanicDegrades checks panic isolation plus tiered retry: a
// hook that panics on every experiment's first tier must not abort the
// campaign (even under FailFast) — each experiment retries on the next
// rung, and because the differential suites prove the tiers
// bit-identical, the degraded campaign reproduces the clean one's
// records exactly. Its Converged count matches too where the next rung
// keeps convergence (see retryConverges).
func TestTransientPanicDegrades(t *testing.T) {
	tg := target(t, "CRC32")
	baseline := func() *core.EngineResult {
		eng := registerEngine(tg)
		eng.N = 40
		eng.Seed = 17
		eng.Workers = 1
		eng.Record = true
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	eng := registerEngine(tg)
	eng.N = 40
	eng.Seed = 17
	eng.Workers = 1
	eng.Record = true
	var panics atomic.Int64
	restore := core.SetExperimentHook(func(idx int) {
		panics.Add(1)
		panic("transient: injected first-tier panic")
	})
	defer restore()
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("campaign with transient panics aborted: %v", err)
	}
	if got := panics.Load(); got != 40 {
		t.Fatalf("hook fired %d times, want once per experiment (40)", got)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("transient panics quarantined %d experiments", len(res.Quarantined))
	}
	tiercontract.SameResult(t, "transient-panic degradation", baseline, res, retryConverges(tg))
}

// retryConverges reports whether the second rung of tg's supervision
// ladder runs with convergence on, as its first does: it drops only the
// compiled kernels. A target whose set already holds compile, as under
// MULTIFLIP_DISABLE=compile, retries on pure interpretation, so a
// retried experiment cannot converge.
func retryConverges(tg *core.Target) bool { return !tg.Disable.Has(vm.TierCompile) }

// TestQuarantinePersistentFailure drives every fault model over a target
// that fails at every tier: under Quarantine the campaign must complete,
// tally each experiment as Internal, and carry one sorted repro record
// per experiment.
func TestQuarantinePersistentFailure(t *testing.T) {
	const n = 6
	for _, m := range engineModels() {
		t.Run(m.name, func(t *testing.T) {
			eng := m.engine(brokenTarget(t))
			eng.N = n
			eng.Seed = 3
			eng.Workers = 2
			eng.Record = true
			eng.FailurePolicy = core.Quarantine
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("quarantine campaign aborted: %v", err)
			}
			if got := res.Count(core.OutcomeInternal); got != n {
				t.Fatalf("Internal tally = %d, want %d", got, n)
			}
			if len(res.Quarantined) != n {
				t.Fatalf("quarantined %d experiments, want %d", len(res.Quarantined), n)
			}
			for i, rec := range res.Quarantined {
				if rec.Index != i {
					t.Fatalf("record %d has index %d: not sorted by experiment", i, rec.Index)
				}
				if rec.Seed != eng.Seed || rec.Model == "" {
					t.Fatalf("record %d misses repro identity: %+v", i, rec)
				}
				if len(rec.Tiers) != 3 || rec.Tiers[0] != "full" || rec.Tiers[2] != "interp" {
					t.Fatalf("record %d tier ladder = %v", i, rec.Tiers)
				}
				if len(rec.Errs) != len(rec.Tiers) {
					t.Fatalf("record %d has %d errors for %d tiers", i, len(rec.Errs), len(rec.Tiers))
				}
			}
			for i, exp := range res.Experiments {
				if exp.Outcome != core.OutcomeInternal || exp.Bit != -1 {
					t.Fatalf("experiment %d not poisoned: %+v", i, exp)
				}
			}
		})
	}
}

// TestQuarantineRecordsPanicMetadata checks that a quarantined
// experiment whose first tier panicked carries the panic value and a
// stable stack digest.
func TestQuarantineRecordsPanicMetadata(t *testing.T) {
	eng := registerEngine(brokenTarget(t))
	eng.N = 2
	eng.Seed = 3
	eng.Workers = 1
	eng.FailurePolicy = core.Quarantine
	restore := core.SetExperimentHook(func(idx int) {
		panic("boom: persistent hook panic")
	})
	defer restore()
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 2 {
		t.Fatalf("quarantined %d experiments, want 2", len(res.Quarantined))
	}
	for _, rec := range res.Quarantined {
		if !strings.Contains(rec.Panic, "boom") {
			t.Fatalf("record misses the panic value: %+v", rec)
		}
		if len(rec.Stack) != 16 {
			t.Fatalf("record stack digest %q is not 16 hex digits", rec.Stack)
		}
	}
}

// TestFailFastNamesEveryTier checks the FailFast exhaustion error: it
// must name the model, the experiment and the tier ladder walked.
func TestFailFastNamesEveryTier(t *testing.T) {
	eng := registerEngine(brokenTarget(t))
	eng.N = 1
	eng.Seed = 3
	eng.Workers = 1
	_, err := eng.Run()
	if err == nil {
		t.Fatal("fail-fast campaign on a broken target succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"core:", "experiment 0", "failed at every supervision tier", "full -> nocompile -> interp"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error misses %q: %v", want, err)
		}
	}
}

// TestLadderStartsFromTarget checks that every fault model reads its
// tiers from the target: the supervision ladder starts from the
// target's disable set and adds compile and converge in turn,
// collapsing the rungs the target already disables.
func TestLadderStartsFromTarget(t *testing.T) {
	for _, c := range []struct {
		disable vm.Tiers
		ladder  string
	}{
		{0, "(full -> nocompile -> interp)"},
		{vm.TierCompile, "(nocompile -> interp)"},
		{vm.TierConverge, "(full -> interp)"},
		{vm.TierCompile | vm.TierConverge, "(interp)"},
	} {
		broken := brokenTarget(t)
		broken.Disable = c.disable
		for _, m := range engineModels() {
			eng := m.engine(broken)
			eng.N = 1
			eng.Seed = 3
			eng.Workers = 1
			_, err := eng.Run()
			if err == nil || !strings.Contains(err.Error(), c.ladder) {
				t.Errorf("%s, disable %q: want ladder %s, got %v", m.name, c.disable, c.ladder, err)
			}
		}
	}
}

// TestQuarantineJournaledResume checks the durability half: quarantine
// records fold through shard checkpoints, a resumed campaign reloads
// them bit-identically without re-running anything, and the journal
// status reports the poisoned count.
func TestQuarantineJournaledResume(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	run := func(resume bool) *core.EngineResult {
		eng := registerEngine(brokenTarget(t))
		eng.N = n
		eng.Seed = 3
		eng.Workers = 2
		eng.Record = true
		eng.FailurePolicy = core.Quarantine
		eng.Service = &core.Service{Dir: dir, Resume: resume, ShardSize: 3}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(false)
	if len(first.Quarantined) != n {
		t.Fatalf("quarantined %d experiments, want %d", len(first.Quarantined), n)
	}

	// The resume must fold stored checkpoints only: the hook counts
	// experiment executions and none may happen.
	var reran atomic.Int64
	restore := core.SetExperimentHook(func(idx int) { reran.Add(1) })
	second := run(true)
	restore()
	if got := reran.Load(); got != 0 {
		t.Fatalf("resume re-ran %d experiments of a drained campaign", got)
	}
	tiercontract.SameResult(t, "quarantine journaled resume", first, second, true)

	paths, err := filepath.Glob(filepath.Join(dir, "campaign-*.mfj"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one campaign journal, got %v (%v)", paths, err)
	}
	j, err := core.OpenFileJournal(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	status, err := j.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Quarantined != n {
		t.Fatalf("journal status reports %d quarantined, want %d", status.Quarantined, n)
	}
}

// TestQuarantinePolicyChangesFingerprint pins the content-addressing
// rule: Quarantine campaigns journal under their own fingerprint (their
// tallies can legitimately differ from FailFast ones), while the default
// FailFast keeps the pre-supervision address so existing journals still
// resume.
func TestQuarantinePolicyChangesFingerprint(t *testing.T) {
	tg := target(t, "CRC32")
	fp := func(policy core.FailurePolicy) uint64 {
		eng := registerEngine(tg)
		eng.N = 8
		eng.Seed = 1
		eng.FailurePolicy = policy
		return core.EngineFingerprint(eng)
	}
	if fp(core.FailFast) == fp(core.Quarantine) {
		t.Fatal("failure policies share a campaign fingerprint")
	}
	var unset core.FailurePolicy
	if fp(unset) != fp(core.FailFast) {
		t.Fatal("zero-value policy does not fingerprint as FailFast")
	}
}

// TestChaosPanicEnv checks MULTIFLIP_CHAOS_PANIC. A malformed value
// fails Engine.Run with an error naming the variable before any
// experiment runs, instead of running the campaign with no panic
// injected. A valid one injects panics on the first ladder tier: the
// next rung retries them, so results match an undisturbed run, and a
// target whose ladder has one rung fails on them.
func TestChaosPanicEnv(t *testing.T) {
	eng := func(tg *core.Target) *core.Engine {
		e := registerEngine(tg)
		e.N, e.Seed, e.Record = 40, 5, true
		return e
	}
	tg := target(t, "CRC32")
	baseline, err := eng(tg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"banana", "0", "-2"} {
		t.Setenv("MULTIFLIP_CHAOS_PANIC", bad)
		core.RereadEnv(t)
		var ran atomic.Int64
		restore := core.SetExperimentHook(func(int) { ran.Add(1) })
		_, err := eng(tg).Run()
		restore()
		if err == nil || !strings.Contains(err.Error(), "MULTIFLIP_CHAOS_PANIC") {
			t.Errorf("MULTIFLIP_CHAOS_PANIC=%s: Run returned %v, want an error naming the variable", bad, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("MULTIFLIP_CHAOS_PANIC=%s: %d experiments ran", bad, n)
		}
	}

	t.Setenv("MULTIFLIP_CHAOS_PANIC", "3")
	core.RereadEnv(t)
	res, err := eng(tg).Run()
	if err != nil {
		t.Fatal(err)
	}
	tiercontract.SameResult(t, "injected chaos panics", baseline, res, retryConverges(tg))
	if _, err := eng(targetWith(t, "CRC32", vm.TierCompile|vm.TierConverge)).Run(); err == nil ||
		!strings.Contains(err.Error(), "chaos: injected panic") {
		t.Errorf("one-rung ladder under MULTIFLIP_CHAOS_PANIC=3 returned %v, want the injected panic", err)
	}
}
