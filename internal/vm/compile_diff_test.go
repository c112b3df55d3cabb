package vm

// The compiled-tier differential suite: for every workload in the suite
// (the 15 paper programs plus the extras), runs with the generated native
// kernels must be bit-identical to compile-disabled runs through the
// interpreter (the handler table, driven by sprint and step) — outputs,
// counters, snapshots and the states they hold, injection behaviour and
// convergence alike. The kernels are generated and the handlers written
// by hand, so this suite compares the VM's two implementations of the
// token semantics. The companion campaign-level contract lives in
// internal/tiercontract.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

var (
	suiteOnce  sync.Once
	suiteProgs []*ir.Program
)

// suitePrograms builds every suite workload (All + Extras) once per test
// binary, in registry order.
func suitePrograms() []*ir.Program {
	suiteOnce.Do(func() {
		for _, b := range append(prog.All(), prog.Extras()...) {
			p, err := b.Build()
			if err != nil {
				panic(fmt.Sprintf("build %s: %v", b.Name, err))
			}
			suiteProgs = append(suiteProgs, p)
		}
	})
	return suiteProgs
}

// TestCompiledKernelsEngage pins the suite's non-vacuity: unless the
// MULTIFLIP_DISABLE disables compile, every suite workload must actually
// run on its generated kernel — otherwise the differential tests below
// compare the interpreter against itself.
func TestCompiledKernelsEngage(t *testing.T) {
	if EnvDisabled().Has(TierCompile) {
		t.Skip("MULTIFLIP_DISABLE includes compile")
	}
	for _, p := range suitePrograms() {
		if !Compiled(p) {
			t.Errorf("%s: no compiled kernel engages (stale fingerprint or missing registration; re-run go generate ./...)", p.Name)
		}
	}
}

// TestRunDoesNotPinPrograms checks that the compiled tier keeps no
// reference to the programs it runs: a suite program that ran on its
// kernel is collected once the caller drops it. (perfbench builds the
// suite again on every pass, so a per-program entry would grow the heap
// without bound.)
func TestRunDoesNotPinPrograms(t *testing.T) {
	collected := make(chan struct{})
	func() {
		bench, err := prog.ByName("CRC32")
		if err != nil {
			t.Fatal(err)
		}
		p, err := bench.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(p, func(ch chan struct{}) { close(ch) }, collected)
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("a program that ran is still reachable after a collection")
	}
}

// TestCompiledDifferential is the tier's core contract, program by
// program: fault-free runs, checkpointing runs (including snapshot
// placement and the state each snapshot holds), cross-tier snapshot resume,
// register injection plans (both techniques), stuck-at holds, scheduled
// memory flips and convergence-gated runs all match the interpreter bit
// for bit. Plans and holds also match their stepped reference (the same
// run with CountRoles, which steps every instruction), so the injection
// horizon both tiers share is checked against execution that has none.
func TestCompiledDifferential(t *testing.T) {
	for _, p := range suitePrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			base := Options{CountRoles: true}
			noComp := func(o Options) Options { o.Disable |= TierCompile; return o }

			straight, err := Run(p, base)
			if err != nil {
				t.Fatal(err)
			}
			interp, err := Run(p, noComp(base))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "fault-free compiled vs interpreted", straight, interp)

			// Checkpointing: snapshot instants and states are part of the
			// observable contract — campaigns resume from them and converge
			// against them.
			ck := Options{Checkpoint: 64, MaxSnapshots: 32}
			fast, err := Run(p, ck)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := Run(p, noComp(ck))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "checkpointing compiled vs interpreted", fast, slow)
			if len(fast.Snapshots) != len(slow.Snapshots) {
				t.Fatalf("snapshot counts diverge: %d compiled vs %d interpreted",
					len(fast.Snapshots), len(slow.Snapshots))
			}
			for i := range fast.Snapshots {
				if fast.Snapshots[i].Dyn != slow.Snapshots[i].Dyn {
					t.Fatalf("snapshot %d instant diverges: %d vs %d",
						i, fast.Snapshots[i].Dyn, slow.Snapshots[i].Dyn)
				}
				if diff := snapshotDiff(fast.Snapshots[i], slow.Snapshots[i]); diff != "" {
					t.Fatalf("snapshot %d state diverges between tiers: %s", i, diff)
				}
			}
			if fast.Trace == nil || slow.Trace == nil {
				t.Fatal("checkpointing run recorded no trace")
			}
			// The golden run's event snapshots: the kernels, sprint and step
			// (a role-counting run steps every instruction) stop at the same
			// returns to main and outputs, in the same state.
			stepped, err := Run(p, Options{Checkpoint: ck.Checkpoint, MaxSnapshots: ck.MaxSnapshots, CountRoles: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*GoldenTrace{slow.Trace, stepped.Trace} {
				sameEvents(t, "return", fast.Trace.rets, tr.rets)
				sameEvents(t, "output", fast.Trace.outs, tr.outs)
			}
			if len(fast.Trace.outs.snaps) == 0 {
				t.Fatal("the golden run kept no output snapshot")
			}

			// Cross-tier resume: a snapshot taken by one tier replays
			// identically under the other.
			if len(fast.Snapshots) > 0 {
				mid := fast.Snapshots[len(fast.Snapshots)/2]
				res, err := Run(p, noComp(Options{Resume: mid}))
				if err != nil {
					t.Fatal(err)
				}
				crossWant, err := Run(p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "interpreted resume from compiled snapshot", res, crossWant)
				midSlow := slow.Snapshots[len(slow.Snapshots)/2]
				res, err = Run(p, Options{Resume: midSlow})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "compiled resume from interpreted snapshot", res, crossWant)
			}

			// Injection plans: both techniques, multi-flip, with and without
			// the golden trace (convergence must fire identically).
			hang := Options{MaxDyn: 4*straight.Dyn + 1000, MaxOutput: 4*len(straight.Output) + 4096}
			for i, onWrite := range []bool{false, true} {
				mkPlan := func() *Plan {
					return &Plan{
						OnWrite:    onWrite,
						FirstCand:  uint64(7 + 131*i),
						MaxFlips:   3,
						PinnedBit:  -1,
						NextWindow: func(*xrand.Rand) uint64 { return 9 },
						Rng:        xrand.ForExperiment(99, uint64(i)),
					}
				}
				po := hang
				po.Plan = mkPlan()
				a, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				po = noComp(hang)
				po.Plan = mkPlan()
				b, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("plan onWrite=%v compiled vs interpreted", onWrite), a, b)
				po = hang
				po.Plan = mkPlan()
				po.CountRoles = true
				ref, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				sameStepped(t, fmt.Sprintf("plan onWrite=%v compiled vs stepped", onWrite), a, ref)

				po = hang
				po.Plan = mkPlan()
				po.Trace = fast.Trace
				ac, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				po = noComp(hang)
				po.Plan = mkPlan()
				po.Trace = slow.Trace
				bc, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("plan+trace onWrite=%v compiled vs interpreted", onWrite), ac, bc)
				sameStepped(t, fmt.Sprintf("plan+trace onWrite=%v compiled vs stepped", onWrite), ac, ref)
				if ac.Converged != bc.Converged {
					t.Fatalf("plan onWrite=%v: convergence diverges: %v vs %v", onWrite, ac.Converged, bc.Converged)
				}
			}

			// Stuck-at hold.
			mkStuck := func() *Plan {
				return &Plan{
					Stuck:      true,
					StuckHigh:  true,
					HoldWindow: 120,
					FirstCand:  41,
					MaxFlips:   1,
					PinnedBit:  -1,
					Rng:        xrand.ForExperiment(7, 3),
				}
			}
			po := hang
			po.Plan = mkStuck()
			sa, err := Run(p, po)
			if err != nil {
				t.Fatal(err)
			}
			po = noComp(hang)
			po.Plan = mkStuck()
			sb, err := Run(p, po)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "stuck-at compiled vs interpreted", sa, sb)
			po = hang
			po.Plan = mkStuck()
			po.CountRoles = true
			sref, err := Run(p, po)
			if err != nil {
				t.Fatal(err)
			}
			sameStepped(t, "stuck-at compiled vs stepped", sa, sref)

			// A scheduled memory flip mid-run.
			if len(p.Globals) >= 8 {
				flip := MemFlip{AtDyn: straight.Dyn / 2, Word: uint64(len(p.Globals)/16) * 8, Mask: 1 << 17}
				po = hang
				po.MemFlips = []MemFlip{flip}
				ma, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				po = noComp(hang)
				po.MemFlips = []MemFlip{flip}
				mb, err := Run(p, po)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "memflip compiled vs interpreted", ma, mb)
			}
		})
	}
}

// sameEvents fails unless two golden runs kept the same event snapshots,
// at the same stride, holding the same state.
func sameEvents(t *testing.T, kind string, a, b events) {
	t.Helper()
	if len(a.snaps) != len(b.snaps) || a.stride != b.stride {
		t.Fatalf("%s snapshots diverge: %d at stride %d vs %d at stride %d",
			kind, len(a.snaps), a.stride, len(b.snaps), b.stride)
	}
	for i := range a.snaps {
		if diff := snapshotDiff(a.snaps[i], b.snaps[i]); diff != "" {
			t.Fatalf("%s snapshot %d diverges between tiers: %s", kind, i, diff)
		}
	}
}
