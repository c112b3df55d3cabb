package core_test

// Engine seam tests, written once against core.Engine and run for all
// three fault models (register flips, memory-word faults, stuck-at
// registers). They replace the per-package copies that used to live in
// internal/core and internal/memfault: concurrent-failure propagation
// and memo/scheduling determinism are engine properties, not model
// properties.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
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

// TestEngineMemoDeterminism checks, for every fault model, that results
// are independent of scheduling and of the early-exit tier: sequential
// reruns reproduce the early-exit counts exactly, parallel runs
// reproduce every experiment record and aggregate (only MemoHits and
// Converged may move — whether a fault-equivalent twin is intercepted
// by the memo or reconverges on its own depends on scheduling), and a
// run on a converge-disabled target reproduces the records with both
// tiers off.
func TestEngineMemoDeterminism(t *testing.T) {
	tg := target(t, "CRC32")
	noConv := targetWith(t, "CRC32", vm.TierConverge)
	for _, m := range engineModels() {
		t.Run(m.name, func(t *testing.T) {
			run := func(tg *core.Target, workers int) *core.EngineResult {
				eng := m.engine(tg)
				eng.N = 80
				eng.Seed = 21
				eng.Workers = workers
				eng.Record = true
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(tg, 1)
			again := run(tg, 1)
			if seq.MemoHits != again.MemoHits || seq.Converged != again.Converged {
				t.Errorf("sequential reruns diverge: memo %d vs %d, converged %d vs %d",
					seq.MemoHits, again.MemoHits, seq.Converged, again.Converged)
			}
			par := run(tg, 8)
			off := run(noConv, 8)
			if off.MemoHits != 0 || off.Converged != 0 {
				t.Errorf("converge-disabled run reported early exits: memo %d, converged %d",
					off.MemoHits, off.Converged)
			}
			for _, other := range []*core.EngineResult{again, par, off} {
				if len(other.Experiments) != len(seq.Experiments) {
					t.Fatalf("experiment counts differ: %d vs %d", len(other.Experiments), len(seq.Experiments))
				}
				for i := range seq.Experiments {
					if seq.Experiments[i] != other.Experiments[i] {
						t.Fatalf("experiment %d differs across runs: %+v vs %+v",
							i, seq.Experiments[i], other.Experiments[i])
					}
				}
				if seq.Counts != other.Counts || seq.TrapCounts != other.TrapCounts ||
					seq.CrashActivated != other.CrashActivated ||
					seq.ActivatedTotal != other.ActivatedTotal {
					t.Errorf("aggregates diverge across runs")
				}
			}
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
