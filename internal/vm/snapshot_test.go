package vm

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// checkIntervals is the spread of checkpoint spacings the round-trip
// property is verified under: far below, near, and far above the typical
// golden-run length.
var checkIntervals = []uint64{37, 256, 4096}

// sameResult compares the observable fields of two results (everything
// except Snapshots, which only a checkpointing run fills). FirstPre and
// FirstRole are what campaigns record as an experiment's flip direction
// and role.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Stop != want.Stop || got.Trap != want.Trap {
		t.Fatalf("%s: stop %s/%s, want %s/%s", label, got.Stop, got.Trap, want.Stop, want.Trap)
	}
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatalf("%s: output differs (%d bytes vs %d)", label, len(got.Output), len(want.Output))
	}
	if got.Dyn != want.Dyn || got.ReadSlots != want.ReadSlots || got.Writes != want.Writes {
		t.Fatalf("%s: counters (dyn=%d rs=%d w=%d), want (dyn=%d rs=%d w=%d)", label,
			got.Dyn, got.ReadSlots, got.Writes, want.Dyn, want.ReadSlots, want.Writes)
	}
	if got.Injected != want.Injected || got.FirstBit != want.FirstBit ||
		got.FirstPre != want.FirstPre || got.FirstRole != want.FirstRole {
		t.Fatalf("%s: injected=%d first bit=%d pre=%d role=%v, want injected=%d first bit=%d pre=%d role=%v", label,
			got.Injected, got.FirstBit, got.FirstPre, got.FirstRole,
			want.Injected, want.FirstBit, want.FirstPre, want.FirstRole)
	}
	if !reflect.DeepEqual(got.InjectionDyns, want.InjectionDyns) {
		t.Fatalf("%s: injection dyns %v, want %v", label, got.InjectionDyns, want.InjectionDyns)
	}
	if got.ReadRoles != want.ReadRoles || got.WriteRoles != want.WriteRoles {
		t.Fatalf("%s: role counters differ", label)
	}
}

// sameStepped compares a run against its stepped reference: the same
// options plus CountRoles, which steps every instruction through the
// observer tier and so never uses an injection horizon. Everything
// sameResult compares must match except the role tallies, which only the
// reference fills.
func sameStepped(t *testing.T, label string, got, ref *Result) {
	t.Helper()
	g := *got
	g.ReadRoles, g.WriteRoles = ref.ReadRoles, ref.WriteRoles
	sameResult(t, label, &g, ref)
}

// TestSnapshotRoundTrip proves the core resume property on every workload:
// a run resumed from any golden-run snapshot finishes with exactly the
// straight run's observable result, for several checkpoint intervals, and
// checkpointing itself does not perturb the run.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		straight, err := Run(p, Options{CountRoles: true})
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		for _, interval := range checkIntervals {
			t.Run(fmt.Sprintf("%s/k=%d", bench.Name, interval), func(t *testing.T) {
				ckpt, err := Run(p, Options{CountRoles: true, Checkpoint: interval})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "checkpointing run", ckpt, straight)
				if len(ckpt.Snapshots) == 0 {
					t.Fatalf("no snapshots at interval %d (dyn=%d)", interval, straight.Dyn)
				}
				for _, idx := range []int{0, len(ckpt.Snapshots) / 2, len(ckpt.Snapshots) - 1} {
					s := ckpt.Snapshots[idx]
					res, err := Run(p, Options{CountRoles: true, Resume: s})
					if err != nil {
						t.Fatalf("resume from snapshot %d (dyn=%d): %v", idx, s.Dyn, err)
					}
					sameResult(t, fmt.Sprintf("resume from dyn=%d", s.Dyn), res, straight)
				}
			})
		}
	}
}

// TestSnapshotResumeWithPlan proves injection plans behave identically
// after a restore: for both techniques and single- and multi-bit plans,
// an experiment resumed from a snapshot preceding its first candidate
// produces exactly the straight experiment's result.
func TestSnapshotResumeWithPlan(t *testing.T) {
	plans := []struct {
		name     string
		onWrite  bool
		maxFlips int
		sameReg  bool
	}{
		{"read-single", false, 1, true},
		{"write-single", true, 1, true},
		{"read-multi-samereg", false, 4, true},
		{"read-multi-window", false, 3, false},
		{"write-multi-window", true, 3, false},
	}
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		ckpt, err := Run(p, Options{Checkpoint: 199})
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		if len(ckpt.Snapshots) == 0 {
			t.Fatalf("%s: no snapshots", bench.Name)
		}
		snap := ckpt.Snapshots[len(ckpt.Snapshots)/2]
		for _, pc := range plans {
			t.Run(bench.Name+"/"+pc.name, func(t *testing.T) {
				for trial := uint64(0); trial < 4; trial++ {
					// First candidate at or after the snapshot's counter;
					// trial 0 exercises the equality edge.
					cand := snap.Candidates(pc.onWrite) + 17*trial
					mkPlan := func() *Plan {
						pl := &Plan{
							OnWrite:   pc.onWrite,
							FirstCand: cand,
							MaxFlips:  pc.maxFlips,
							SameReg:   pc.sameReg,
							PinnedBit: -1,
							Rng:       xrand.ForExperiment(99, trial),
						}
						if !pc.sameReg {
							pl.NextWindow = func(r *xrand.Rand) uint64 { return 1 + uint64(r.Intn(10)) }
						}
						return pl
					}
					opts := Options{MaxDyn: 10 * ckpt.Dyn}
					straightOpts := opts
					straightOpts.Plan = mkPlan()
					straight, err := Run(p, straightOpts)
					if err != nil {
						t.Fatal(err)
					}
					resumeOpts := opts
					resumeOpts.Plan = mkPlan()
					resumeOpts.Resume = snap
					resumed, err := Run(p, resumeOpts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("cand=%d", cand), resumed, straight)
				}
			})
		}
	}
}

// TestSnapshotImmutableUnderConcurrentResume resumes one snapshot from
// many goroutines with distinct injection plans; each run must match its
// own sequential replay, proving restore never aliases snapshot state.
func TestSnapshotImmutableUnderConcurrentResume(t *testing.T) {
	bench, err := prog.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := Run(p, Options{Checkpoint: 500})
	if err != nil {
		t.Fatal(err)
	}
	snap := ckpt.Snapshots[len(ckpt.Snapshots)/2]

	const goroutines = 16
	results := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Run(p, Options{
				MaxDyn: 10 * ckpt.Dyn,
				Resume: snap,
				Plan: &Plan{
					FirstCand: snap.ReadSlots + uint64(g)*31,
					MaxFlips:  2,
					SameReg:   true,
					PinnedBit: -1,
					Rng:       xrand.ForExperiment(7, uint64(g)),
				},
			})
			if err == nil {
				results[g] = res
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if results[g] == nil {
			t.Fatalf("goroutine %d failed", g)
		}
		again, err := Run(p, Options{
			MaxDyn: 10 * ckpt.Dyn,
			Resume: snap,
			Plan: &Plan{
				FirstCand: snap.ReadSlots + uint64(g)*31,
				MaxFlips:  2,
				SameReg:   true,
				PinnedBit: -1,
				Rng:       xrand.ForExperiment(7, uint64(g)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("goroutine %d", g), results[g], again)
	}
}

// TestSnapshotThinning checks the interval-doubling cap: a run forced to
// tiny intervals keeps at most MaxSnapshots snapshots, still in strictly
// increasing dynamic order, and each remains resumable.
func TestSnapshotThinning(t *testing.T) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	const maxSnaps = 8
	ckpt, err := Run(p, Options{Checkpoint: 1, MaxSnapshots: maxSnaps})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ckpt.Snapshots); n == 0 || n >= maxSnaps {
		t.Fatalf("kept %d snapshots, want in [1, %d)", n, maxSnaps)
	}
	var prev uint64
	for _, s := range ckpt.Snapshots {
		if s.Dyn <= prev && prev != 0 {
			t.Fatalf("snapshots out of order: %d after %d", s.Dyn, prev)
		}
		prev = s.Dyn
		res, err := Run(p, Options{Resume: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dyn != ckpt.Dyn || !bytes.Equal(res.Output, ckpt.Output) {
			t.Fatalf("resume from dyn=%d diverged", s.Dyn)
		}
	}

	// A degenerate cap must not thin away every snapshot.
	one, err := Run(p, Options{Checkpoint: 1, MaxSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Snapshots) == 0 {
		t.Fatal("MaxSnapshots=1 kept no snapshots")
	}
}

// TestSnapshotResumeValidation covers the restore error paths: foreign
// program, a first candidate the snapshot has already passed, and a
// memory flip due before the snapshot point.
func TestSnapshotResumeValidation(t *testing.T) {
	benchA, _ := prog.ByName("CRC32")
	benchB, _ := prog.ByName("qsort")
	pa, err := benchA.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := benchB.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := Run(pa, Options{Checkpoint: 1000})
	if err != nil {
		t.Fatal(err)
	}
	snap := ckpt.Snapshots[len(ckpt.Snapshots)-1]
	if snap.ReadSlots == 0 || snap.Writes == 0 {
		t.Fatalf("last snapshot has zero counters: %+v", snap)
	}

	if _, err := Run(pb, Options{Resume: snap}); err == nil {
		t.Error("foreign-program resume accepted")
	}
	for _, onWrite := range []bool{false, true} {
		_, err := Run(pa, Options{
			Resume: snap,
			Plan: &Plan{
				OnWrite:   onWrite,
				FirstCand: snap.Candidates(onWrite) - 1,
				MaxFlips:  1,
				SameReg:   true,
				PinnedBit: -1,
				Rng:       xrand.New(1),
			},
		})
		if err == nil {
			t.Errorf("onWrite=%v: pre-snapshot candidate accepted", onWrite)
		}
	}
	if _, err := Run(pa, Options{
		Resume:   snap,
		MemFlips: []MemFlip{{AtDyn: snap.Dyn - 1, Word: 0, Mask: 1}},
	}); err == nil {
		t.Error("pre-snapshot memory flip accepted")
	}

	// Checkpointing only supports fault-free runs: snapshots do not carry
	// injection state, so a corrupted prefix must not become resumable.
	if _, err := Run(pa, Options{
		Checkpoint: 100,
		Plan: &Plan{
			FirstCand: 0, MaxFlips: 1, SameReg: true, PinnedBit: -1, Rng: xrand.New(1),
		},
	}); err == nil {
		t.Error("checkpointing an injection run accepted")
	}
	if _, err := Run(pa, Options{
		Checkpoint: 100,
		MemFlips:   []MemFlip{{AtDyn: 10, Word: 0, Mask: 1}},
	}); err == nil {
		t.Error("checkpointing a memory-flip run accepted")
	}
}

// TestSnapshotStackRoundTrip pins the subtlest part of restore: stack
// bytes between the live pointer and the high-water mark (popped frames'
// stale data) must survive the round trip, because a fault can redirect a
// load into them.
func TestSnapshotStackRoundTrip(t *testing.T) {
	// main: calls leaf() which allocates and writes a slot, then after the
	// call (sp popped back) allocates again and reads the recycled memory
	// without initializing it — legal here, deterministic in the VM.
	mb := ir.NewModule("stale-stack")
	leaf := mb.Func("leaf", 0)
	leaf.Store64(leaf.Alloca(8), ir.C(0xdeadbeef), 0)
	leaf.RetVoid()
	f := mb.Func("main", 0)
	f.CallVoid("leaf")
	f.Out32(f.Load64(f.Alloca(8), 0)) // reads leaf's stale 0xdeadbeef
	f.RetVoid()
	p := mb.MustBuild()

	straight, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := Run(p, Options{Checkpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "checkpointing run", ckpt, straight)
	for _, s := range ckpt.Snapshots {
		res, err := Run(p, Options{Resume: s})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("resume from dyn=%d", s.Dyn), res, straight)
	}
}
