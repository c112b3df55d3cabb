package vm

// A Runner reuses one machine, one Result and its output and injection
// buffers across runs. These tests pin what that reuse must never do:
// let a run see state an earlier run left behind, write into memory a
// snapshot, a golden trace or a converged result still reads, or
// allocate once warm.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// runnerWindow is the follow-up distance sampler of the multi-register
// plans below: RND(2-10), as a plain function so that building a plan
// allocates nothing.
func runnerWindow(r *xrand.Rand) uint64 { return uint64(r.IntRange(2, 10)) }

// snapshotBefore returns the latest of snaps whose candidate counter for
// the technique does not pass cand, or nil when none qualifies.
func snapshotBefore(snaps []*Snapshot, onWrite bool, cand uint64) *Snapshot {
	var best *Snapshot
	for _, s := range snaps {
		if s.Candidates(onWrite) > cand {
			break
		}
		best = s
	}
	return best
}

// campaignRun fills plan and rng in place with experiment idx of a
// campaign over golden's program, the way the engine plans one: a
// uniformly drawn first candidate, mbf flips (same register when mbf is
// 1), resumed from the latest golden snapshot before the candidate and
// converging against the golden trace. It returns the run's options.
func campaignRun(golden *Result, plan *Plan, rng *xrand.Rand, onWrite bool, mbf int, idx uint64) Options {
	rng.SeedExperiment(5, idx)
	cands := golden.ReadSlots
	if onWrite {
		cands = golden.Writes
	}
	*plan = Plan{
		OnWrite:   onWrite,
		FirstCand: rng.Uint64n(cands),
		MaxFlips:  mbf,
		SameReg:   mbf == 1,
		PinnedBit: -1,
		Rng:       rng,
	}
	if mbf > 1 {
		plan.NextWindow = runnerWindow
	}
	return Options{
		MaxDyn:    10*golden.Dyn + 1000,
		MaxOutput: 4*len(golden.Output) + 4096,
		Plan:      plan,
		Resume:    snapshotBefore(golden.Snapshots, onWrite, plan.FirstCand),
		Trace:     golden.Trace,
	}
}

// sameRunnerResult fails unless got equals want in every Result field.
// Output and InjectionDyns compare by content (a reused buffer is empty
// where a fresh run's is nil); snapshots by the machine state they hold;
// traces by their snapshots and final outcome.
func sameRunnerResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatalf("%s: output differs (%d bytes vs %d)", label, len(got.Output), len(want.Output))
	}
	if !slices.Equal(got.InjectionDyns, want.InjectionDyns) {
		t.Fatalf("%s: injection dyns %v, want %v", label, got.InjectionDyns, want.InjectionDyns)
	}
	if len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("%s: %d snapshots, want %d", label, len(got.Snapshots), len(want.Snapshots))
	}
	for i, s := range got.Snapshots {
		w := want.Snapshots[i]
		if diff := snapshotDiff(s, w); diff != "" {
			t.Fatalf("%s: snapshot %d differs in its %s", label, i, diff)
		}
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("%s: trace recorded %v, want %v", label, got.Trace != nil, want.Trace != nil)
	}
	if got.Trace != nil {
		g, w := got.Trace, want.Trace
		if !slices.Equal(g.snaps, got.Snapshots) || !bytes.Equal(g.finalOut, w.finalOut) ||
			g.finalDyn != w.finalDyn || g.finalReadSlots != w.finalReadSlots || g.finalWrites != w.finalWrites ||
			g.finalStop != w.finalStop || g.maxFrames != w.maxFrames {
			t.Fatalf("%s: golden trace differs", label)
		}
	}
	g, w := *got, *want
	g.Output, w.Output = nil, nil
	g.InjectionDyns, w.InjectionDyns = nil, nil
	g.Snapshots, w.Snapshots = nil, nil
	g.Trace, w.Trace = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: result\n%+v\nwant\n%+v", label, g, w)
	}
}

// findRun returns the options of the first campaign experiment, over
// indices from 0, whose fresh run satisfies keep, and false when none of
// the first 400 does.
func findRun(t *testing.T, p *ir.Program, golden *Result, onWrite bool, mbf int, keep func(*Result) bool) (func() Options, bool) {
	t.Helper()
	for idx := uint64(0); idx < 400; idx++ {
		mk := func() Options { return campaignRun(golden, new(Plan), new(xrand.Rand), onWrite, mbf, idx) }
		res, err := Run(p, mk())
		if err != nil {
			t.Fatal(err)
		}
		if keep(res) {
			return mk, true
		}
	}
	return nil, false
}

// tableIIPrograms returns the 15 Table II programs: the suite without
// its extras, whose megapixel workload takes seconds per thousand runs
// under the race detector and exercises no output or state rule the
// others miss.
func tableIIPrograms() []*ir.Program { return suitePrograms()[:len(prog.All())] }

// TestRunnerMatchesFreshRuns runs one Runner per Table II program and
// technique through runs that trap, hang, hit the output limit,
// converge and panic, a checkpointing profile run and plain campaign
// runs. After each, the Runner's result must equal a fresh Run's in
// every field: a failed run leaves nothing behind, and a checkpointing
// run's snapshots and trace are its own.
func TestRunnerMatchesFreshRuns(t *testing.T) {
	seen := map[string]int{}
	for _, p := range tableIIPrograms() {
		golden := goldenWithTrace(t, p)
		for _, onWrite := range []bool{false, true} {
			label := fmt.Sprintf("%s onWrite=%v", p.Name, onWrite)
			// A step's stop, when set, is the one its run must end with.
			type step struct {
				name string
				opts func() Options
				stop StopReason
			}
			plain := func(mbf int, idx uint64) func() Options {
				return func() Options { return campaignRun(golden, new(Plan), new(xrand.Rand), onWrite, mbf, idx) }
			}
			steps := []step{{name: "campaign run", opts: plain(1, 0)}}
			if mk, ok := findRun(t, p, golden, onWrite, 30, func(r *Result) bool { return r.Stop == StopTrap }); ok {
				steps = append(steps, step{"trap", mk, StopTrap}, step{name: "after trap", opts: plain(3, 1)})
			}
			steps = append(steps,
				step{"hang", func() Options {
					// Fault-free, so that nothing but the budget ends it.
					o := plain(3, 2)()
					o.Plan = nil
					o.MaxDyn = golden.Dyn / 2
					if o.Resume != nil && o.Resume.Dyn >= o.MaxDyn {
						o.MaxDyn = o.Resume.Dyn + 1
					}
					return o
				}, StopHang},
				step{name: "after hang", opts: plain(1, 3)})
			if len(golden.Output) > 1 {
				steps = append(steps,
					step{"output limit", func() Options { return Options{MaxOutput: len(golden.Output) / 2} }, StopOutputLimit},
					step{name: "after output limit", opts: plain(3, 4)})
			}
			if mk, ok := findRun(t, p, golden, onWrite, 1, func(r *Result) bool { return r.Converged }); ok {
				steps = append(steps, step{"converged", mk, StopReturned}, step{name: "after converged", opts: plain(30, 5)})
			}
			steps = append(steps,
				step{"checkpointing profile", func() Options {
					return Options{Checkpoint: 64, MaxSnapshots: 512, CountRoles: true}
				}, StopReturned},
				step{name: "after profile", opts: plain(3, 6)})

			var r Runner
			for _, s := range steps {
				got, err := r.Run(p, s.opts())
				if err != nil {
					t.Fatalf("%s %s: %v", label, s.name, err)
				}
				want, err := Run(p, s.opts())
				if err != nil {
					t.Fatalf("%s %s: fresh run: %v", label, s.name, err)
				}
				if s.stop != 0 && got.Stop != s.stop {
					t.Fatalf("%s %s: run stopped with %s, want %s", label, s.name, got.Stop, s.stop)
				}
				sameRunnerResult(t, label+" "+s.name, got, want)
				seen[s.name]++
			}

			// A run that panics mid-way (here in its window sampler, after
			// the first flip) must leave nothing the next run sees either.
			o := plain(3, 7)()
			o.Plan.NextWindow = func(*xrand.Rand) uint64 { panic("window sampler failed") }
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: the panicking run did not panic", label)
					}
				}()
				r.Run(p, o)
			}()
			got, err := r.Run(p, plain(3, 8)())
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(p, plain(3, 8)())
			if err != nil {
				t.Fatal(err)
			}
			sameRunnerResult(t, label+" after panic", got, want)
		}
	}
	// Non-vacuity: the searched-for stops occur somewhere in the suite.
	if seen["trap"] == 0 {
		t.Error("no suite program produced a trapping run")
	}
	if seen["converged"] == 0 && !EnvDisabled().Has(TierConverge) {
		t.Error("no suite program produced a converged run")
	}
}

// overlaps reports whether the backing array of buf, up to its
// capacity, shares memory with view, up to its length.
func overlaps(buf, view []byte) bool {
	if cap(buf) == 0 || len(view) == 0 {
		return false
	}
	b := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	v := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return b < v+uintptr(len(view)) && v < b+uintptr(cap(buf))
}

// TestRunnerKeepsSharedOutputs checks that a Runner never writes into
// output it does not own. A golden profile run on the Runner itself
// leaves snapshots, whose output prefixes view that run's buffer, and a
// golden trace, whose final output is what converged runs report. None
// of 1,000 campaign runs on the same Runner may report an unconverged
// Output whose buffer overlaps them, and afterwards their bytes must be
// unchanged. The runs cycle through the tier combinations a campaign
// can run under: resumed or from the start, traced or not.
func TestRunnerKeepsSharedOutputs(t *testing.T) {
	for _, p := range tableIIPrograms() {
		var r Runner
		res, err := r.Run(p, Options{Checkpoint: 64, MaxSnapshots: 512})
		if err != nil {
			t.Fatal(err)
		}
		// The Runner's Result is overwritten by the next run; keep copies
		// of the fields the campaign runs need.
		golden := *res
		if golden.Trace == nil {
			t.Fatalf("%s: profile recorded no trace", p.Name)
		}
		hash := func() uint64 {
			h := fnv.New64a()
			for _, s := range golden.Snapshots {
				h.Write(s.out)
			}
			h.Write(golden.Trace.finalOut)
			h.Write(golden.Output)
			return h.Sum64()
		}
		before := hash()
		var (
			plan Plan
			rng  xrand.Rand
		)
		for i := uint64(0); i < 1000; i++ {
			opts := campaignRun(&golden, &plan, &rng, i%2 == 1, []int{1, 3, 30}[i%3], i)
			if i/2%2 == 1 {
				opts.Resume = nil
			}
			if i/4%2 == 1 {
				opts.Trace = nil
			}
			res, err := r.Run(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged && bytes.Equal(res.Output, golden.Trace.finalOut) {
				continue // its Output is the trace's final output
			}
			if overlaps(res.Output, golden.Trace.finalOut) {
				t.Fatalf("%s run %d: the Runner's output buffer overlaps the golden trace's final output", p.Name, i)
			}
			for _, s := range golden.Snapshots {
				if overlaps(res.Output, s.out) {
					t.Fatalf("%s run %d: the Runner's output buffer overlaps a snapshot's output prefix", p.Name, i)
				}
			}
		}
		if after := hash(); after != before {
			t.Fatalf("%s: 1,000 runs on the Runner changed the snapshots' output prefixes or the trace's final output", p.Name)
		}
	}
}

// TestRunnerSparesConvergedOutput checks that the run after a converged
// one that printed the golden output does not write into the converged
// result's Output, which is the golden trace's final output. (A run that
// printed something else before converging owns its Output, like an
// unconverged run.) The next run is another program's, so its bytes
// differ from the ones it would overwrite.
func TestRunnerSparesConvergedOutput(t *testing.T) {
	if EnvDisabled().Has(TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge")
	}
	progs := suitePrograms()
	checked := 0
	for i, p := range progs {
		golden := goldenWithTrace(t, p)
		mk, ok := findRun(t, p, golden, false, 1, func(r *Result) bool {
			return r.Converged && bytes.Equal(r.Output, golden.Output)
		})
		if !ok {
			continue
		}
		var r Runner
		conv, err := r.Run(p, mk())
		if err != nil {
			t.Fatal(err)
		}
		if !conv.Converged {
			t.Fatalf("%s: the Runner's run did not converge", p.Name)
		}
		out := conv.Output
		want := bytes.Clone(out)
		next := progs[(i+1)%len(progs)]
		if _, err := r.Run(next, Options{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: running %s after a converged run overwrote its Output", p.Name, next.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no suite program produced a converged run")
	}
}

// TestRunnerAllocs pins the Runner's purpose: once warm, a resumed,
// traced, planned run allocates nothing, on every suite program,
// compiled and with the compiled or the convergence tier disabled.
func TestRunnerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, p := range suitePrograms() {
		golden := goldenWithTrace(t, p)
		for _, disable := range []Tiers{0, TierCompile, TierConverge} {
			var (
				r    Runner
				plan Plan
				rng  xrand.Rand
			)
			run := func(i uint64) {
				opts := campaignRun(golden, &plan, &rng, i%2 == 1, 1+2*int(i%2), i%8)
				opts.Disable = disable
				if _, err := r.Run(p, opts); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the Runner's buffers and the snapshots' page tables on
			// the same runs the measurement repeats.
			for i := uint64(0); i < 8; i++ {
				run(i)
			}
			var i uint64
			if n := testing.AllocsPerRun(40, func() { run(i); i++ }); n != 0 {
				t.Errorf("%s disable=%q: %.2f allocations per warm run, want 0", p.Name, disable, n)
			}
		}
	}
}
