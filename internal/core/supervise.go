package core

// The supervised execution layer: panic isolation, tiered degradation
// and the failure-policy seam. The engine's worker loop never calls
// runOne directly anymore — every experiment goes through runSupervised,
// which walks a ladder of progressively degraded execution tiers
// (compiled fast tier -> the interpreter, the VM's handler table ->
// interpretation with convergence off). The tier contract (internal/tiercontract)
// proves the tiers bit-identical, so a retry on a degraded tier is a
// legitimate result, not an approximation: a buggy generated kernel or a
// tripped VM invariant degrades one experiment to the interpreter
// instead of killing a campaign of tens of thousands.
//
// An experiment that fails at EVERY tier is decided by the engine's
// FailurePolicy: FailFast (the default, and the only behavior that
// existed before this layer) aborts the run with a joined error naming
// each tier's failure; Quarantine records a poisoned Experiment with
// full repro metadata (QuarantineRecord), tallies it under
// OutcomeInternal and lets the campaign keep draining.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"multiflip/internal/vm"
)

// FailurePolicy decides what happens to an experiment that fails (or
// panics) at every supervision tier.
type FailurePolicy int

// Failure policies.
const (
	// FailFast aborts the campaign on the first experiment that exhausts
	// the tier ladder (the engine's historical behavior, and the
	// default).
	FailFast FailurePolicy = iota
	// Quarantine records the experiment as poisoned — OutcomeInternal,
	// with a QuarantineRecord carrying the repro metadata — and keeps
	// the campaign draining. Quarantined experiments fold through shard
	// checkpoints like any other, so resumed and multi-process campaigns
	// agree on them bit for bit.
	Quarantine
)

// String renders the policy as the front-end flags spell it.
func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "fast"
	case Quarantine:
		return "quarantine"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// ParseFailurePolicy parses a front-end -onfail value. Empty selects
// FailFast.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch strings.TrimSpace(s) {
	case "", "fast", "failfast":
		return FailFast, nil
	case "quarantine":
		return Quarantine, nil
	}
	return FailFast, fmt.Errorf("core: unknown failure policy %q (want fast or quarantine)", s)
}

// rungName names a ladder rung for error messages and quarantine
// records.
func rungName(disable vm.Tiers) string {
	switch {
	case !disable.Has(vm.TierCompile):
		return "full"
	case !disable.Has(vm.TierConverge):
		return "nocompile"
	}
	return "interp"
}

// ladder returns the engine's degradation ladder, each rung the set of
// tiers an attempt runs without: the target's set first, then
// progressively less machinery — compiled kernels off, then
// convergence off (pure interpretation). Rungs the target already
// disables collapse away, so a campaign on a compile-disabled target has
// a two-rung ladder and a fully degraded one tries each experiment once.
func (e *Engine) ladder() []vm.Tiers {
	out := []vm.Tiers{e.Target.Disable}
	for _, tier := range []vm.Tiers{vm.TierCompile, vm.TierConverge} {
		if rung := out[len(out)-1] | tier; rung != out[len(out)-1] {
			out = append(out, rung)
		}
	}
	return out
}

// panicError wraps a recovered experiment panic as an error. The stack
// digest (FNV-64a of the goroutine stack) identifies the failure site
// stably across runs without dumping whole stacks into campaign errors
// and journal records.
type panicError struct {
	value  string
	digest string
}

// Error implements error.
func (p *panicError) Error() string {
	return fmt.Sprintf("experiment panicked: %s [stack %s]", p.value, p.digest)
}

// QuarantineRecord is the repro metadata of one poisoned experiment:
// everything needed to replay the failure in isolation (the experiment
// index and campaign seed pin its private random stream, the model
// description its injection plan) plus what went wrong at each tier.
// Records fold through ShardResult/journal checkpoints; journals written
// before the supervision layer existed load with zero of them.
type QuarantineRecord struct {
	// Index is the experiment index within the campaign.
	Index int `json:"i"`
	// Seed is the campaign seed (with Index, the experiment's full
	// random-stream identity).
	Seed uint64 `json:"seed"`
	// Model is the fault model's self-description (FaultModel.Describe).
	Model string `json:"model"`
	// Tiers names the ladder rungs tried, in order.
	Tiers []string `json:"tiers"`
	// Errs holds one error string per tried tier.
	Errs []string `json:"errs"`
	// Panic is the recovered panic value of the first panicking tier
	// (empty when every tier failed with a plain error).
	Panic string `json:"panic,omitempty"`
	// Stack is the FNV-64a digest of the first panicking tier's stack.
	Stack string `json:"stack,omitempty"`
}

// sortQuarantined orders records by experiment index, making folded
// results independent of worker scheduling and fold order.
func sortQuarantined(recs []QuarantineRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
}

// runSupervised performs experiment idx under the supervision ladder:
// each tier's attempt is panic-isolated, and a failed attempt retries on
// the next (more degraded) rung. On exhaustion the engine's
// FailurePolicy decides between a joined error (FailFast) and a poisoned
// experiment plus QuarantineRecord (Quarantine). The bool reports, as
// runOne's does, whether the experiment converged.
func (e *Engine) runSupervised(idx uint64, w *worker, ladder []vm.Tiers) (Experiment, bool, *QuarantineRecord, error) {
	var (
		tiers    []string
		errs     []error
		panicVal string
		panicDig string
	)
	for i, rung := range ladder {
		exp, converged, err := e.attempt(idx, w, rung, i == 0)
		if err == nil {
			return exp, converged, nil, nil
		}
		tiers = append(tiers, rungName(rung))
		errs = append(errs, err)
		var pe *panicError
		if panicVal == "" && errors.As(err, &pe) {
			panicVal, panicDig = pe.value, pe.digest
		}
	}
	if e.FailurePolicy == Quarantine {
		rec := &QuarantineRecord{
			Index: int(idx),
			Seed:  e.Seed,
			Model: e.Model.Describe(),
			Tiers: tiers,
		}
		for _, err := range errs {
			rec.Errs = append(rec.Errs, err.Error())
		}
		rec.Panic, rec.Stack = panicVal, panicDig
		// The poisoned record: no injection metadata is trustworthy (the
		// failure may predate planning), so the experiment carries only
		// the quarantine outcome. Deterministic, hence identical across
		// resume, lease steals and worker counts.
		exp := Experiment{Bit: -1, Outcome: OutcomeInternal}
		return exp, false, rec, nil
	}
	return Experiment{}, false, nil, fmt.Errorf(
		"%s: %s experiment %d failed at every supervision tier (%s): %w",
		e.Model.Prefix(), e.Target.Name, idx, strings.Join(tiers, " -> "),
		errors.Join(dedupeErrors(errs)...))
}

// dedupeErrors drops consecutive repeats by message: a deterministic
// failure usually reads identically on every tier, and four copies of
// one cause bury the signal.
func dedupeErrors(errs []error) []error {
	out := errs[:0]
	seen := ""
	for _, err := range errs {
		if msg := err.Error(); msg != seen {
			out = append(out, err)
			seen = msg
		}
	}
	return out
}

// attempt runs one tier's try of experiment idx with panic isolation. A
// recovered panic becomes a *panicError; the worker's goroutine — and
// with it every other in-flight experiment — survives. The experiment
// hook (test seam) and the MULTIFLIP_CHAOS_PANIC injection fire on the
// first tier only, inside the recover scope, so an injected panic is
// indistinguishable from a real one and each experiment observes exactly
// one hook call.
func (e *Engine) attempt(idx uint64, w *worker, rung vm.Tiers, first bool) (exp Experiment, converged bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			h := fnv.New64a()
			h.Write(stack)
			err = &panicError{
				value:  fmt.Sprint(r),
				digest: fmt.Sprintf("%016x", h.Sum64()),
			}
		}
	}()
	if first {
		if h := experimentHook; h != nil {
			h(int(idx))
		}
		if k, _ := chaosPanic(); k > 0 && chaosCalls.Add(1)%k == 0 {
			panic(fmt.Sprintf("chaos: injected panic at experiment %d", idx))
		}
	}
	return e.runOne(idx, w, rung)
}

// chaosPanicEnv parses MULTIFLIP_CHAOS_PANIC=k: with it set, every k-th
// first-tier attempt in the process panics. The panics are transient —
// they fire on the first ladder tier only, so the retry succeeds on the
// next rung and results stay bit-identical — which is exactly what the
// CI chaos ablation exercises. Unset is 0; anything but a positive
// integer is an error, which fails every Engine.Run.
func chaosPanicEnv() (int64, error) {
	v := os.Getenv("MULTIFLIP_CHAOS_PANIC")
	if v == "" {
		return 0, nil
	}
	k, err := strconv.ParseInt(v, 10, 64)
	if err != nil || k <= 0 {
		return 0, fmt.Errorf("core: MULTIFLIP_CHAOS_PANIC=%q: want a positive integer", v)
	}
	return k, nil
}

// chaosPanic reads MULTIFLIP_CHAOS_PANIC on first use rather than in a
// package initializer, so that `go test`, which logs only the
// environment reads made while tests run, keys its result cache on it.
var chaosPanic = sync.OnceValues(chaosPanicEnv)

// chaosCalls counts the first-tier attempts MULTIFLIP_CHAOS_PANIC sees.
var chaosCalls atomic.Int64
