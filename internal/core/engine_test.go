package core_test

// Engine seam tests, written once against core.Engine and run for all
// three fault models (register flips, memory-word faults, stuck-at
// registers). They replace the per-package copies that used to live in
// internal/core and internal/memfault: concurrent-failure propagation
// and scheduling determinism are engine properties, not model
// properties.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

// engineModel builds an Engine for one fault model over a target. The
// returned engine carries the model and nothing else; tests fill in N,
// Seed, Workers and the rest.
type engineModel struct {
	name   string
	prefix string // the model's error prefix
	engine func(tg *core.Target) *core.Engine
}

func engineModels() []engineModel {
	return []engineModel{
		{"register", "core", func(tg *core.Target) *core.Engine {
			return &core.Engine{Target: tg, Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.Config{MaxMBF: 3, Win: core.Win(10)},
			}}}
		}},
		{"memfault", "memfault", func(tg *core.Target) *core.Engine {
			return &core.Engine{Target: tg, Model: &memfault.Model{Bits: 3}}
		}},
		{"stuckat", "stuckat", func(tg *core.Target) *core.Engine {
			return &core.Engine{Target: tg, Model: &core.StuckAtModel{Spec: &core.StuckAtSpec{
				Window: core.Win(50),
			}}}
		}},
	}
}

// brokenTarget returns a target whose snapshots and golden trace belong
// to a different program, so every experiment fails inside vm.Run: the
// VM rejects a foreign trace even when convergence is disabled, and a
// foreign snapshot on any run that fast-forwards. Either alone keeps the
// target broken when MULTIFLIP_DISABLE removes the other.
func brokenTarget(t *testing.T) *core.Target {
	t.Helper()
	broken := *target(t, "CRC32")
	other := target(t, "qsort")
	broken.Snapshots, broken.Trace = other.Snapshots, other.Trace
	// An empty tier set, whatever MULTIFLIP_DISABLE holds: the
	// supervision ladder then walks every rung, and the campaign address
	// is the one the pinned journals of the tests that use it were
	// written under.
	broken.Disable = 0
	return &broken
}

// TestEngineJoinsConcurrentErrors checks the errors.Join propagation for
// every fault model: a barrier in the experiment hook holds both workers
// until each has claimed an experiment, both fail, and both failures
// surface in the returned error instead of just whichever lost the race.
func TestEngineJoinsConcurrentErrors(t *testing.T) {
	for _, m := range engineModels() {
		t.Run(m.name, func(t *testing.T) {
			eng := m.engine(brokenTarget(t))
			eng.N = 2
			eng.Seed = 1
			eng.Workers = 2
			var barrier sync.WaitGroup
			barrier.Add(2)
			restore := core.SetExperimentHook(func(idx int) {
				// Both workers must claim before either is allowed to fail,
				// so the failed flag cannot stop the second claim.
				barrier.Done()
				barrier.Wait()
			})
			defer restore()
			_, err := eng.Run()
			if err == nil {
				t.Fatal("engine run on a broken target succeeded")
			}
			msg := err.Error()
			if !strings.Contains(msg, m.prefix+":") {
				t.Errorf("error misses the model prefix: %v", err)
			}
			if !strings.Contains(msg, "experiment 0") || !strings.Contains(msg, "experiment 1") {
				t.Errorf("joined error misses a worker's failure: %v", err)
			}
			var many interface{ Unwrap() []error }
			if !errors.As(err, &many) || len(many.Unwrap()) != 2 {
				t.Errorf("want a 2-error join, got %v", err)
			}
		})
	}
}

// TestEngineInterruptBeforeRun checks that an interrupt sticks: for
// every fault model, in memory and journaled, an Engine interrupted
// before Run returns ErrInterrupted without running any experiment.
func TestEngineInterruptBeforeRun(t *testing.T) {
	tg := target(t, "CRC32")
	var ran atomic.Int64
	defer core.SetExperimentHook(func(int) { ran.Add(1) })()
	for _, m := range engineModels() {
		for _, journaled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/journaled=%v", m.name, journaled), func(t *testing.T) {
				ran.Store(0)
				eng := m.engine(tg)
				eng.N = 2000
				eng.Seed = 1
				if journaled {
					eng.Service = &core.Service{Dir: t.TempDir()}
				}
				eng.Interrupt()
				if _, err := eng.Run(); !errors.Is(err, core.ErrInterrupted) {
					t.Errorf("Run after Interrupt returned %v, want ErrInterrupted", err)
				}
				if n := ran.Load(); n != 0 {
					t.Errorf("%d experiments ran after Interrupt", n)
				}
			})
		}
	}
}

// TestEngineConvergedDeterminism checks, for every fault model, that
// results are independent of scheduling and of the early-exit tier:
// runs at 1, 2 and 8 workers, and journaled runs at 2 and 8, reproduce
// every experiment record and aggregate, Converged included, and a run
// on a converge-disabled target reproduces the records without
// converging any experiment.
func TestEngineConvergedDeterminism(t *testing.T) {
	tg := target(t, "CRC32")
	noConv := targetWith(t, "CRC32", vm.TierConverge)
	for _, m := range engineModels() {
		t.Run(m.name, func(t *testing.T) {
			run := func(tg *core.Target, workers int, svc *core.Service) *core.EngineResult {
				eng := m.engine(tg)
				eng.N = 80
				eng.Seed = 21
				eng.Workers = workers
				eng.Record = true
				eng.Service = svc
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(tg, 1, nil)
			for _, workers := range []int{2, 8} {
				label := fmt.Sprintf("%d workers", workers)
				tiercontract.SameResult(t, label, seq, run(tg, workers, nil), true)
				svc := &core.Service{Dir: t.TempDir(), ShardSize: 8}
				tiercontract.SameResult(t, "journaled, "+label, seq, run(tg, workers, svc), true)
			}
			off := run(noConv, 8, nil)
			if off.Converged != 0 {
				t.Errorf("converge-disabled run converged %d experiments", off.Converged)
			}
			tiercontract.SameResult(t, "converge disabled", seq, off, false)
		})
	}
}

// TestEngineClaimBatchInvariance checks that the claim batch size is
// invisible in the results. The batch follows the worker count: at
// N = 100, workers 1, 4 and 100 claim batches of 25, 6 and 1 (the
// pre-engine claim-per-experiment behaviour), and all three produce
// bit-identical experiments.
func TestEngineClaimBatchInvariance(t *testing.T) {
	const n = 100
	tg := target(t, "histo")
	for _, m := range engineModels() {
		t.Run(m.name, func(t *testing.T) {
			run := func(workers int) *core.EngineResult {
				eng := m.engine(tg)
				eng.N = n
				eng.Seed = 7
				eng.Workers = workers
				eng.Record = true
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			one := run(1)
			for _, workers := range []int{4, n} {
				if workers == n && core.AutoClaimBatch(n, workers) != 1 {
					t.Fatalf("%d workers claim batches of %d, want 1", workers, core.AutoClaimBatch(n, workers))
				}
				other := run(workers)
				if one.Counts != other.Counts {
					t.Fatalf("tallies differ between 1 and %d workers: %v vs %v", workers, one.Counts, other.Counts)
				}
				for i := range one.Experiments {
					if one.Experiments[i] != other.Experiments[i] {
						t.Fatalf("experiment %d differs between 1 and %d workers", i, workers)
					}
				}
			}
		})
	}
}

// TestAutoClaimBatch pins the auto-tuner's contract: always at least 1,
// never past the clamp, scaling with N and shrinking with workers so
// every worker gets several claim rounds.
func TestAutoClaimBatch(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{1, 8, 1},         // tiny run degrades to claim-per-experiment
		{100, 4, 6},       // N/(workers*4)
		{200, 8, 6},       // the old fixed default's worst case stays small
		{10000, 8, 312},   // would overshoot: clamped
		{1000000, 1, 256}, // huge single-worker run hits the clamp
		{16, 16, 1},       // one experiment per worker
	}
	for _, c := range cases {
		got := core.AutoClaimBatch(c.n, c.workers)
		want := c.want
		if want > core.MaxClaimBatch {
			want = core.MaxClaimBatch
		}
		if got != want {
			t.Errorf("AutoClaimBatch(%d, %d) = %d, want %d", c.n, c.workers, got, want)
		}
		if got < 1 || got > core.MaxClaimBatch {
			t.Errorf("AutoClaimBatch(%d, %d) = %d outside [1, %d]", c.n, c.workers, got, core.MaxClaimBatch)
		}
		// A worker can never be starved: the batch leaves every worker at
		// least one claim when N >= workers.
		if c.n >= c.workers && got > c.n/c.workers {
			t.Errorf("AutoClaimBatch(%d, %d) = %d starves workers", c.n, c.workers, got)
		}
	}
}

// TestEngineValidation checks the engine's own parameter validation and
// that model validation runs before any experiment.
func TestEngineValidation(t *testing.T) {
	tg := target(t, "CRC32")
	if _, err := (&core.Engine{Model: &core.StuckAtModel{Spec: &core.StuckAtSpec{}}, N: 1}).Run(); err == nil {
		t.Error("engine without a target ran")
	}
	if _, err := (&core.Engine{Target: tg, N: 1}).Run(); err == nil {
		t.Error("engine without a model ran")
	}
	eng := &core.Engine{Target: tg, Model: &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: core.Win(50)}}}
	if _, err := eng.Run(); err == nil {
		t.Error("engine with N = 0 ran")
	}
	bad := &core.Engine{Target: tg, Model: &core.RegisterModel{Spec: &core.CampaignSpec{}}, N: 1}
	if _, err := bad.Run(); err == nil {
		t.Error("engine accepted an invalid model spec")
	}
	// An engine N past the pin list must be rejected, not index out of
	// range inside a worker.
	mismatched := &core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.SingleBit(),
			Pins:      []core.Pin{{Cand: 0, Bit: 1}},
		}},
		N: 10,
	}
	if _, err := mismatched.Run(); err == nil {
		t.Error("engine accepted N != len(Pins) on a pinned register model")
	}
}

// TestClaimNextCoversEachIndexOnce runs concurrent claimers over runs of
// several sizes and worker counts. Every index must be claimed exactly
// once, in batches of autoClaimBatch over the indices still unclaimed:
// the first batch is autoClaimBatch over the whole run, none passes
// maxClaimBatch, and the last workers·claimSpread indices go one per
// claim.
func TestClaimNextCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{1, 7, 40, 1000, 1001} {
		for _, workers := range []int{1, 2, 3, 8} {
			var (
				next    atomic.Int64
				wg      sync.WaitGroup
				mu      sync.Mutex
				batches [][2]int
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						lo, hi, ok := core.ClaimNext(&next, n, workers)
						if !ok {
							return
						}
						mu.Lock()
						batches = append(batches, [2]int{lo, hi})
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			label := fmt.Sprintf("n=%d workers=%d", n, workers)
			hits := make([]int, n)
			for _, b := range batches {
				lo, size := b[0], b[1]-b[0]
				if size < 1 || size > core.MaxClaimBatch {
					t.Fatalf("%s: batch [%d, %d) outside [1, %d]", label, lo, b[1], core.MaxClaimBatch)
				}
				if want := core.AutoClaimBatch(n-lo, workers); size != want {
					t.Fatalf("%s: batch at %d holds %d indices, want %d", label, lo, size, want)
				}
				if lo > n-core.ClaimSpread*workers && size != 1 {
					t.Fatalf("%s: final batch at %d holds %d indices, want 1", label, lo, size)
				}
				for i := lo; i < b[1]; i++ {
					hits[i]++
				}
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s: index %d claimed %d times", label, i, h)
				}
			}
			slices.SortFunc(batches, func(a, b [2]int) int { return a[0] - b[0] })
			if got, want := batches[0][1], core.AutoClaimBatch(n, workers); got != want {
				t.Fatalf("%s: first batch holds %d indices, want %d", label, got, want)
			}
			if last := batches[len(batches)-1]; last[1]-last[0] != 1 {
				t.Fatalf("%s: last batch holds %d indices, want 1", label, last[1]-last[0])
			}
		}
	}
}

// TestEngineAllocsPerExperiment bounds what an executed experiment
// allocates: its *vm.Plan, not a machine, a result, an output buffer or
// a random stream. The campaign's own set-up (workers, shards, result)
// is shared by its 1000 experiments.
func TestEngineAllocsPerExperiment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n, bound = 1000, 1.5
	for _, name := range []string{"CRC32", "qsort", "dijkstra", "susan_smoothing"} {
		tg := target(t, name)
		for _, cfg := range []core.Config{core.SingleBit(), {MaxMBF: 30, Win: core.WinRange(101, 1000)}} {
			run := func() {
				e := &core.Engine{
					Target: tg,
					Model:  &core.RegisterModel{Spec: &core.CampaignSpec{Technique: core.InjectOnRead, Config: cfg}},
					N:      n,
					Seed:   3,
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			per := testing.AllocsPerRun(3, run) / n
			t.Logf("%s %s: %.2f allocations per experiment", name, cfg, per)
			if per > bound {
				t.Errorf("%s %s: %.2f allocations per experiment, want at most %.1f", name, cfg, per, bound)
			}
		}
	}
}

// TestEngineDoesNotPinTargets checks that the workers an engine parks
// for later runs keep nothing of a finished campaign: its program, its
// code (which a machine's call frames point into) and its golden output
// (which a converged result reports) are collected once the caller
// drops the target.
func TestEngineDoesNotPinTargets(t *testing.T) {
	var collected sync.WaitGroup
	func() {
		b, err := prog.ByName("CRC32")
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tg, err := core.NewTarget(b.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		e := &core.Engine{
			Target: tg,
			Model:  &core.RegisterModel{Spec: &core.CampaignSpec{Technique: core.InjectOnRead, Config: core.SingleBit()}},
			N:      200,
			Seed:   1,
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		collected.Add(3)
		runtime.AddCleanup(p, (*sync.WaitGroup).Done, &collected)
		runtime.AddCleanup(&p.Funcs[p.Main].Code[0], (*sync.WaitGroup).Done, &collected)
		runtime.AddCleanup(&tg.Golden[0], (*sync.WaitGroup).Done, &collected)
	}()
	runtime.GC()
	done := make(chan struct{})
	go func() { collected.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a finished campaign's program, code or golden output is still reachable after a collection")
	}
}
