package core_test

// Campaign-service tests: the shard-merge algebra, the lease-steal
// protocol, resume from a file journal, the mid-flight status snapshot
// and concurrent Services on one directory. The crash/restart differential harness lives in
// crash_restart_test.go.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// baselineRun executes a plain (unjournaled) recorded register campaign
// and returns its result: the reference every journaled variant must
// reproduce bit-identically.
func baselineRun(t *testing.T, tg *core.Target, n int) *core.EngineResult {
	t.Helper()
	eng := registerEngine(tg)
	eng.N = n
	eng.Seed = 11
	eng.Record = true
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// registerEngine builds a multi-bit register-model engine over tg (the
// model mix exercises every outcome class on the test programs).
func registerEngine(tg *core.Target) *core.Engine {
	return &core.Engine{Target: tg, Model: &core.RegisterModel{Spec: &core.CampaignSpec{
		Technique: core.InjectOnRead,
		Config:    core.Config{MaxMBF: 3, Win: core.Win(10)},
	}}}
}

// TestShardMergeProperty checks the algebra resume correctness rests on:
// folding the shards of any contiguous partition of a campaign's
// experiments reproduces the direct result exactly, and folding them in
// any order reproduces the in-order fold. The partitions are random per
// trial; the baseline runs without convergence so the per-experiment Add
// (which cannot know the early-exit split) matches the counters too.
func TestShardMergeProperty(t *testing.T) {
	tg := targetWith(t, "CRC32", vm.TierConverge)
	const n = 120
	want := baselineRun(t, tg, n)

	type shard struct {
		sr core.ShardResult
		lo int
	}
	fold := func(shards []shard) *core.EngineResult {
		res := &core.EngineResult{Experiments: make([]core.Experiment, n)}
		for _, sh := range shards {
			res.Fold(&sh.sr, sh.lo)
		}
		return res
	}
	rng := xrand.New(99)
	for trial := 0; trial < 25; trial++ {
		// A random contiguous partition: each boundary is kept with
		// probability ~1/6, so shard sizes vary from 1 to tens.
		var bounds []int
		for i := 1; i < n; i++ {
			if rng.Intn(6) == 0 {
				bounds = append(bounds, i)
			}
		}
		bounds = append(bounds, n)
		// Rebuild each shard from the per-experiment records.
		var shards []shard
		lo := 0
		for i, hi := range bounds {
			sr := core.ShardResult{Shard: i}
			for j := lo; j < hi; j++ {
				exp := want.Experiments[j]
				sr.Add(&exp, false)
				sr.Experiments = append(sr.Experiments, exp)
			}
			shards = append(shards, shard{sr, lo})
			lo = hi
		}
		inOrder := fold(shards)
		tiercontract.SameResult(t, "in-order fold", want, inOrder, true)
		// Shuffle: folding order must not matter.
		for pass := 0; pass < 2; pass++ {
			for i := len(shards) - 1; i > 0; i-- {
				j := int(rng.Uint64n(uint64(i + 1)))
				shards[i], shards[j] = shards[j], shards[i]
			}
			tiercontract.SameResult(t, "shuffled fold", inOrder, fold(shards), true)
		}
	}
}

// TestJournalLeaseSteal runs two drainers over one journal with one of
// them stalled mid-shard past its lease TTL: the peer must steal the
// stalled shard, the stalled drainer's late checkpoint must be dropped
// as a duplicate, and both drainers' folded results must match the
// uninterrupted baseline exactly — no experiment lost, none counted
// twice.
func TestJournalLeaseSteal(t *testing.T) {
	tg := target(t, "CRC32")
	const n = 48
	want := baselineRun(t, tg, n)

	j := core.NewMemJournal()
	var stallOnce sync.Once
	restore := core.SetExperimentHook(func(idx int) {
		// The first experiment claimed by either drainer stalls well past
		// the lease TTL, forcing the peer to steal its shard.
		stallOnce.Do(func() { time.Sleep(300 * time.Millisecond) })
	})
	defer restore()

	run := func(worker string) (*core.EngineResult, error) {
		eng := registerEngine(tg)
		eng.N = n
		eng.Seed = 11
		eng.Record = true
		eng.Workers = 1
		eng.Service = &core.Service{
			Journal:   j,
			WorkerID:  worker,
			ShardSize: 4,
			LeaseTTL:  50 * time.Millisecond,
		}
		return eng.Run()
	}
	var wg sync.WaitGroup
	results := make([]*core.EngineResult, 2)
	errs := make([]error, 2)
	for i, worker := range []string{"drainer-a", "drainer-b"} {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			results[i], errs[i] = run(worker)
		}(i, worker)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("drainer %d: %v", i, err)
		}
	}
	for i, res := range results {
		if res.Tally.N() != n {
			t.Errorf("drainer %d tallied %d experiments, want %d", i, res.Tally.N(), n)
		}
		// Everything must match the uninterrupted run bit for bit.
		tiercontract.SameResult(t, "stolen-lease drain", want, res, true)
	}

	st, err := j.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != st.Shards || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("drained journal status %+v", st)
	}
	if st.Tally.N() != n {
		t.Errorf("journal tally holds %d experiments, want %d", st.Tally.N(), n)
	}
}

// TestFileJournalResume checks the file journal end to end: a completed
// campaign's journal resumes without re-running anything, produces the
// identical result, shows up in InspectDir — and a non-resume rerun
// discards its records and starts fresh, leaving those of the other
// campaign in the directory's log to resume.
func TestFileJournalResume(t *testing.T) {
	tg := target(t, "CRC32")
	const n = 60
	want := baselineRun(t, tg, n)
	dir := t.TempDir()

	runSeed := func(seed uint64, resume bool) (*core.EngineResult, int) {
		var ran atomic.Int64
		restore := core.SetExperimentHook(func(idx int) { ran.Add(1) })
		defer restore()
		eng := registerEngine(tg)
		eng.N = n
		eng.Seed = seed
		eng.Record = true
		eng.Service = &core.Service{Dir: dir, Resume: resume, ShardSize: 8}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, int(ran.Load())
	}
	run := func(resume bool) (*core.EngineResult, int) { return runSeed(11, resume) }

	other, _ := runSeed(12, false)
	first, ran := run(false)
	if ran != n {
		t.Errorf("first run executed %d experiments, want %d", ran, n)
	}
	tiercontract.SameResult(t, "journaled run", want, first, true)

	resumed, ran := run(true)
	if ran != 0 {
		t.Errorf("resume of a complete campaign executed %d experiments, want 0", ran)
	}
	tiercontract.SameResult(t, "resumed run", want, resumed, true)

	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("InspectDir found %d campaigns, want 2", len(infos))
	}
	for _, got := range infos {
		if got.Meta.N != n || got.Status.Done != got.Status.Shards || got.Status.ExperimentsDone != n {
			t.Errorf("InspectDir reports %+v / %+v", got.Meta, got.Status)
		}
	}

	fresh, ran := run(false)
	if ran != n {
		t.Errorf("non-resume rerun executed %d experiments, want %d (journal kept?)", ran, n)
	}
	tiercontract.SameResult(t, "fresh rerun", want, fresh, true)
	resumedOther, ran := runSeed(12, true)
	if ran != 0 {
		t.Errorf("resume of the other campaign executed %d experiments, want 0", ran)
	}
	tiercontract.SameResult(t, "other campaign resumed", other, resumedOther, true)
}

// TestJournalBindMismatch checks the journal refuses to resume a
// different campaign: same file, different meta.
func TestJournalBindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign-test.mfj")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := core.CampaignMeta{Fingerprint: 1, Model: "register tech=read", N: 40, ShardSize: 8, Seed: 3}
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	other := meta
	other.Seed = 4
	if err := j.Bind(other); err == nil {
		t.Error("journal bound a different campaign")
	}
	if err := j.Bind(meta); err != nil {
		t.Errorf("journal refused its own campaign: %v", err)
	}
}

// TestCampaignStatusMidFlight snapshots a live campaign from inside an
// experiment hook: the shard partition must always account for every
// shard, and the running tally must only cover checkpointed shards.
func TestCampaignStatusMidFlight(t *testing.T) {
	tg := target(t, "CRC32")
	const n = 64
	j := core.NewMemJournal()

	var calls atomic.Int64
	var statusErr error
	var once sync.Once
	restore := core.SetExperimentHook(func(idx int) {
		// Probe once, midway through the campaign.
		if calls.Add(1) == n/2 {
			once.Do(func() {
				st, err := j.Status()
				if err != nil {
					statusErr = err
					return
				}
				if st.Done+st.Leased+st.Pending != st.Shards {
					statusErr = fmt.Errorf("status partition does not cover the shards: %+v", st)
					return
				}
				if st.Tally.N() != st.ExperimentsDone {
					statusErr = fmt.Errorf("status tally covers %d experiments, done says %d", st.Tally.N(), st.ExperimentsDone)
				}
			})
		}
	})
	defer restore()

	eng := registerEngine(tg)
	eng.N = n
	eng.Seed = 11
	eng.Workers = 2
	eng.Service = &core.Service{Journal: j, ShardSize: 8}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if statusErr != nil {
		t.Error(statusErr)
	}
	st, err := j.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != st.Shards || st.ExperimentsDone != n {
		t.Errorf("final status %+v", st)
	}
}

// TestLeaseHeartbeatOutlivesTTL is the heartbeat acceptance test: a
// shard whose wall-clock time far exceeds the lease TTL completes
// without being stolen, because the worker renews its lease at
// experiment boundaries. A thief polling the same journal (with the
// cross-process skew grace disabled, so expiries are judged exactly)
// must never win a claim before the campaign drains.
func TestLeaseHeartbeatOutlivesTTL(t *testing.T) {
	const (
		n   = 20
		ttl = 800 * time.Millisecond
	)
	tg := target(t, "CRC32")
	baseline := baselineRun(t, tg, n)

	dir := t.TempDir()
	eng := registerEngine(tg)
	eng.N = n
	eng.Seed = 11
	eng.Record = true
	eng.Workers = 1
	eng.Service = &core.Service{
		Dir:       dir,
		ShardSize: n, // one shard: its runtime (~n * 50ms) dwarfs the TTL
		LeaseTTL:  ttl,
		WorkerID:  "slowpoke",
	}
	// Each experiment dawdles 50ms, so the single shard takes ~1s
	// against an 800ms TTL: without heartbeats its lease would lapse
	// mid-shard.
	restore := core.SetExperimentHook(func(idx int) {
		time.Sleep(50 * time.Millisecond)
	})
	defer restore()

	var (
		steals  atomic.Int64
		thiefWg sync.WaitGroup
		done    = make(chan struct{})
	)
	thiefWg.Add(1)
	go func() {
		defer thiefWg.Done()
		// Wait for the journal log to exist, then poll for a steal as a
		// drainer of its own, as another process would.
		log := filepath.Join(dir, "journal.mfj")
		for i := 0; i < 100; i++ {
			if _, err := os.Stat(log); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		j, err := core.OpenCampaignJournal(dir, "thief", core.EngineFingerprint(eng), true, core.FileJournalOptions{LeaseGrace: -1})
		if err != nil {
			t.Error(err)
			return
		}
		defer j.Close()
		for {
			select {
			case <-done:
				return
			case <-time.After(25 * time.Millisecond):
			}
			_, state, err := j.Claim("thief", ttl)
			if err != nil {
				continue
			}
			if state == core.ClaimOK {
				steals.Add(1)
			}
			if state == core.ClaimDrained {
				return
			}
		}
	}()

	res, err := eng.Run()
	close(done)
	thiefWg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := steals.Load(); got != 0 {
		t.Fatalf("thief stole a heartbeat-protected lease %d times", got)
	}
	tiercontract.SameResult(t, "heartbeat-protected shard", baseline, res, true)

	// Non-vacuity: the journal must hold the initial claim plus at least
	// one renewal — the shard's ~1s runtime crosses the ~TTL/3 renewal
	// threshold several times.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	leases := strings.Count(string(raw), `"t":"lease"`)
	if leases < 2 {
		t.Fatalf("journal holds %d lease records; want the claim plus at least one heartbeat renewal", leases)
	}
}

// TestServicesDrainConcurrently has two resuming Services drain the same
// three campaigns on one directory at once, each Service running its
// three concurrently: the in-process stand-in for two `study -resume`
// processes sharing a directory. Every result, Converged included, must
// match the in-memory run.
func TestServicesDrainConcurrently(t *testing.T) {
	tg := target(t, "CRC32")
	const n = 48
	engines := []func() *core.Engine{
		func() *core.Engine { return registerEngine(tg) },
		func() *core.Engine {
			return &core.Engine{Target: tg, Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite, Config: core.SingleBit(),
			}}}
		},
		func() *core.Engine {
			return &core.Engine{Target: tg, Model: &core.StuckAtModel{Spec: &core.StuckAtSpec{
				Window: core.Win(core.DefaultStuckWindow),
			}}}
		},
	}
	engine := func(i int, svc *core.Service) *core.Engine {
		e := engines[i]()
		e.N = n
		e.Seed = uint64(20 + i)
		e.Record = true
		e.Workers = 2
		e.Service = svc
		return e
	}
	want := make([]*core.EngineResult, len(engines))
	for i := range engines {
		res, err := engine(i, nil).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	got := [2][3]*core.EngineResult{}
	errs := [2][3]error{}
	for d, worker := range []string{"drainer-a", "drainer-b"} {
		svc := &core.Service{Dir: dir, Resume: true, WorkerID: worker, ShardSize: 4}
		for i := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[d][i], errs[d][i] = engine(i, svc).Run()
			}()
		}
	}
	wg.Wait()
	for d := range got {
		for i, res := range got[d] {
			if errs[d][i] != nil {
				t.Fatalf("drainer %d campaign %d: %v", d, i, errs[d][i])
			}
			tiercontract.SameResult(t, fmt.Sprintf("drainer %d campaign %d", d, i), want[i], res, true)
		}
	}
}
