// Package multiflip_test benchmarks regenerate every table and figure of
// the paper at reduced scale (program subsets, small per-campaign N), so
// `go test -bench=.` demonstrates each experiment end to end and reports
// its headline metric. cmd/study regenerates everything at full scale.
package multiflip_test

import (
	"fmt"
	"io"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/study"
	"multiflip/internal/vm"
)

// benchProgs is the subset used by the per-figure benchmarks: one
// high-detection program (qsort), one low-detection/high-SDC outlier
// (CRC32), and one float-heavy kernel (FFT).
var benchProgs = []string{"qsort", "CRC32", "FFT"}

const benchN = 60 // experiments per campaign inside benchmarks

func runStudy(b *testing.B, progs []string, maxMBFs []int, wins []core.WinSize) *study.Study {
	b.Helper()
	s, err := study.Run(study.Options{
		N:        benchN,
		Seed:     1,
		Programs: progs,
		MaxMBFs:  maxMBFs,
		WinSizes: wins,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTableI regenerates Table I (the parameter grid).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := study.TableI().Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates Table II: builds and profiles all 15
// benchmark programs and renders their candidate counts.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var total uint64
		for _, bench := range prog.All() {
			p, err := bench.Build()
			if err != nil {
				b.Fatal(err)
			}
			t, err := core.NewTarget(bench.Name, p)
			if err != nil {
				b.Fatal(err)
			}
			total += t.ReadCands
		}
		if total == 0 {
			b.Fatal("no candidates profiled")
		}
	}
}

// BenchmarkFigure1 regenerates Fig 1: single bit-flip outcome
// classification for both techniques.
func BenchmarkFigure1(b *testing.B) {
	var sdc float64
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, []int{2}, []core.WinSize{core.Win(0)})
		for _, tech := range core.Techniques() {
			if err := s.Figure1(tech).Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		sdc = s.Data["CRC32"].Single[core.InjectOnWrite].SDCPct()
	}
	b.ReportMetric(sdc, "CRC32-write-SDC%")
}

// BenchmarkFigure2 regenerates Fig 2: the same-register (win-size = 0)
// max-MBF sweep for both techniques.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, core.StandardMaxMBF(), []core.WinSize{core.Win(0)})
		for _, tech := range core.Techniques() {
			if err := s.Figure2(tech).Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3 regenerates Fig 3: the activated-error distribution at
// max-MBF = 30 over the full win-size grid.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, []int{30}, core.StandardWinSizes())
		for _, tech := range core.Techniques() {
			if err := s.Figure3(tech).Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4 regenerates Fig 4: the multi-register SDC grid for
// inject-on-read (max-MBF sweep over two window clusters).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, core.StandardMaxMBF(),
			[]core.WinSize{core.Win(1), core.Win(100)})
		if err := s.Figure45(core.InjectOnRead).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates Fig 5: as Fig 4 for inject-on-write.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, core.StandardMaxMBF(),
			[]core.WinSize{core.Win(1), core.Win(100)})
		if err := s.Figure45(core.InjectOnWrite).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates Table III: the per-program argmax
// configuration search over a multi-register grid.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, []int{2, 3},
			[]core.WinSize{core.Win(1), core.Win(4), core.WinRange(11, 100)})
		t, err := s.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIV regenerates Table IV (and exercises the Fig 6
// transition machinery): recorded single-bit campaigns, pinned multi-bit
// reruns, transition likelihoods.
func BenchmarkTableIV(b *testing.B) {
	var tranI float64
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, []int{2, 3},
			[]core.WinSize{core.Win(1), core.Win(4)})
		trans, err := s.RunTransitions()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.TableIV(trans).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		tranI = trans["qsort"][core.InjectOnRead].TranI
	}
	b.ReportMetric(tranI, "qsort-read-TranI%")
}

// BenchmarkRQAnswers regenerates the research-question summary over a
// reduced grid.
func BenchmarkRQAnswers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runStudy(b, benchProgs, []int{2, 30},
			[]core.WinSize{core.Win(0), core.Win(1), core.Win(100)})
		if err := s.Answers(nil).Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHangFactor measures the hang-budget sensitivity study.
func BenchmarkAblationHangFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := study.HangFactorAblation("histo", core.InjectOnRead, benchN, 1,
			[]uint64{2, 10, 100})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlignment measures the misaligned-trap ablation.
func BenchmarkAblationAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := study.AlignmentAblation("CRC32", core.InjectOnWrite, benchN, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemFaultSweep regenerates the memory-word multi-bit fault
// extension table (the paper's future work, §V).
func BenchmarkMemFaultSweep(b *testing.B) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTarget(bench.Name, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := memfault.SweepTable(target, []int{1, 3, 8}, benchN, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMGoldenRun measures raw VM throughput on fault-free runs of
// three differently shaped workloads, under the default configuration:
// compiled fast-tier kernels between event horizons, the interpreter
// (the handler table) everywhere else.
func BenchmarkVMGoldenRun(b *testing.B) {
	benchVMGoldenRun(b, vm.Options{})
}

// BenchmarkVMGoldenRunDisableCompile is the compiled-tier ablation: the
// same runs forced onto the interpreter (sprint driving the handler
// table), isolating the fast-tier share of the speedup. The tier contract guarantees both
// variants produce bit-identical results.
func BenchmarkVMGoldenRunDisableCompile(b *testing.B) {
	benchVMGoldenRun(b, vm.Options{Disable: vm.TierCompile})
}

func benchVMGoldenRun(b *testing.B, opts vm.Options) {
	for _, name := range []string{"CRC32", "FFT", "susan_smoothing"} {
		bench, err := prog.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := bench.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var (
				r   vm.Runner
				dyn uint64
			)
			for i := 0; i < b.N; i++ {
				res, err := r.Run(p, opts)
				if err != nil {
					b.Fatal(err)
				}
				dyn = res.Dyn
			}
			b.ReportMetric(float64(dyn)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkCampaignSnapshot measures one Table I campaign (qsort,
// inject-on-read, single-bit) with golden-run snapshot fast-forwarding
// and convergence-gated early termination, against the baselines below.
// The differential tests guarantee all variants produce bit-identical
// results; the deltas here are pure wall-clock.
func BenchmarkCampaignSnapshot(b *testing.B) {
	benchCampaignSnapshot(b, 0)
}

// BenchmarkCampaignDisableSnapshots is the full-replay baseline for
// BenchmarkCampaignSnapshot.
func BenchmarkCampaignDisableSnapshots(b *testing.B) {
	benchCampaignSnapshot(b, vm.TierSnapshots)
}

// BenchmarkCampaignDisableConverge is the convergence ablation:
// snapshot fast-forwarding stays on, but every experiment runs its
// post-injection tail to completion. The delta against
// BenchmarkCampaignSnapshot isolates the early-termination win.
func BenchmarkCampaignDisableConverge(b *testing.B) {
	benchCampaignSnapshot(b, vm.TierConverge)
}

func benchCampaignSnapshot(b *testing.B, disable vm.Tiers) {
	bench, err := prog.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: disable})
	if err != nil {
		b.Fatal(err)
	}
	const perIter = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.Engine{
			Target: target,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.SingleBit(),
			}},
			N:    perIter,
			Seed: uint64(i),
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "experiments/s")
}

// BenchmarkCampaignJournal measures the campaign service's durability
// overhead on the BenchmarkCampaignSnapshot workload: the same campaign
// run through a journal instead of the in-memory fast path. "mem" prices
// the sharded claim/checkpoint protocol alone (in-memory journal);
// "file" adds the checksummed append-only file journal. The resume
// differential tests guarantee all three paths are bit-identical; the
// deltas here are pure wall-clock.
func BenchmarkCampaignJournal(b *testing.B) {
	bench, err := prog.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTarget(bench.Name, p)
	if err != nil {
		b.Fatal(err)
	}
	const perIter = 200
	service := map[string]func(i int) *core.Service{
		"mem": func(int) *core.Service {
			return &core.Service{Journal: core.NewMemJournal()}
		},
		"file": func(int) *core.Service {
			return &core.Service{Dir: b.TempDir()}
		},
	}
	for _, name := range []string{"mem", "file"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Engine{
					Target: target,
					Model: &core.RegisterModel{Spec: &core.CampaignSpec{
						Technique: core.InjectOnRead,
						Config:    core.SingleBit(),
					}},
					N:       perIter,
					Seed:    uint64(i),
					Service: service[name](i),
				}).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "experiments/s")
		})
	}
}

// BenchmarkCampaignThroughput measures end-to-end experiments per second
// of the parallel campaign runner.
func BenchmarkCampaignThroughput(b *testing.B) {
	bench, err := prog.ByName("histo")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTarget(bench.Name, p)
	if err != nil {
		b.Fatal(err)
	}
	const perIter = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.Engine{
			Target: target,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.Config{MaxMBF: 3, Win: core.Win(10)},
			}},
			N:    perIter,
			Seed: uint64(i),
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "experiments/s")
}

// BenchmarkCampaignLargeGlobals runs a register campaign over the named
// megapixel workload (internal/prog, 1 MiB of globals, the largest of
// any workload): every resume copies the whole globals, and each
// convergence check compares only the pages the experiment or the
// golden run stored to since the resume point.
// BenchmarkCampaignLargeGlobalsDisableConverge is its early-termination
// ablation.
func BenchmarkCampaignLargeGlobals(b *testing.B) {
	benchCampaignLargeGlobals(b, 0)
}

// BenchmarkCampaignLargeGlobalsDisableConverge is the convergence
// ablation for BenchmarkCampaignLargeGlobals.
func BenchmarkCampaignLargeGlobalsDisableConverge(b *testing.B) {
	benchCampaignLargeGlobals(b, vm.TierConverge)
}

func benchCampaignLargeGlobals(b *testing.B, disable vm.Tiers) {
	bench, err := prog.ByName("megapixel")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTargetOpts(bench.Name, p, core.TargetOptions{Disable: disable})
	if err != nil {
		b.Fatal(err)
	}
	const perIter = 24
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.Engine{
			Target: target,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.SingleBit(),
			}},
			N:    perIter,
			Seed: uint64(i),
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "experiments/s")
}

// BenchmarkCampaignStuckAt measures the stuck-at model end to end: the
// persistent-fault extension on the same qsort workload as
// BenchmarkCampaignSnapshot.
func BenchmarkCampaignStuckAt(b *testing.B) {
	bench, err := prog.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTarget(bench.Name, p)
	if err != nil {
		b.Fatal(err)
	}
	const perIter = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.Engine{
			Target: target,
			Model:  &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: core.Win(100)}},
			N:      perIter,
			Seed:   uint64(i),
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "experiments/s")
}

// buildCaptureProg builds a synthetic workload over words 64-bit global
// words (a power of two). Every iteration stores to word
// (i*stride)&(words-1): stride 0 confines the write set to one page,
// an odd stride sweeps the whole segment. The per-iteration instruction
// count is independent of both words and stride, so run length is
// constant across configurations.
func buildCaptureProg(words, loops, stride int) (*ir.Program, error) {
	mb := ir.NewModule(fmt.Sprintf("capture-%d-%d", words, stride))
	base := mb.GlobalZero(8 * words)
	f := mb.Func("main", 0)
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(uint64(loops)), func(i ir.Reg) {
		w := f.BinW(ir.W64, ir.OpAnd, f.BinW(ir.W64, ir.OpMul, i, ir.C(uint64(stride))), ir.C(uint64(words-1)))
		addr := f.BinW(ir.W64, ir.OpAdd, ir.C(base), f.BinW(ir.W64, ir.OpMul, w, ir.C(8)))
		f.Store64(addr, i, 0)
		f.Mov(acc, f.BinW(ir.W64, ir.OpXor, acc, f.Load64(addr, 0)))
	})
	f.Out64(acc)
	f.RetVoid()
	return mb.Build()
}

// BenchmarkSnapshotCapture measures golden-run checkpoint capture as
// page-granular deltas. The three corners pin the scaling claim:
// capture cost tracks the pages dirtied per interval, not the size of
// the global segment — "256KiB/local" runs at "8KiB/local" speed, far
// below "256KiB/spread", despite both 256KiB variants executing
// identical instruction streams.
func BenchmarkSnapshotCapture(b *testing.B) {
	const loops = 20000
	cases := []struct {
		name   string
		words  int
		stride int
	}{
		{"mem=256KiB/dirty=local", 1 << 15, 0},
		{"mem=256KiB/dirty=spread", 1 << 15, 37},
		{"mem=8KiB/dirty=local", 1 << 10, 0},
	}
	for _, c := range cases {
		p, err := buildCaptureProg(c.words, loops, c.stride)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			var r vm.Runner
			snaps := 0
			for i := 0; i < b.N; i++ {
				res, err := r.Run(p, vm.Options{Checkpoint: 512, MaxSnapshots: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stop != vm.StopReturned {
					b.Fatalf("run stopped with %s", res.Stop)
				}
				snaps = len(res.Snapshots)
			}
			b.ReportMetric(float64(snaps), "snapshots")
		})
	}
}

// BenchmarkCampaignSupervised pins the cost of the supervised execution
// layer on the healthy path: the recover scope, the tier ladder and the
// failure-policy bookkeeping every experiment now runs through. Both
// policies execute identical work when nothing fails, so the two
// sub-benchmarks should sit within noise of each other and of the
// pre-supervision engine — a spread here means supervision overhead
// leaked into the per-experiment path.
func BenchmarkCampaignSupervised(b *testing.B) {
	bench, err := prog.ByName("CRC32")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bench.Build()
	if err != nil {
		b.Fatal(err)
	}
	target, err := core.NewTarget(bench.Name, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, tt := range []struct {
		name   string
		policy core.FailurePolicy
	}{
		{"failfast", core.FailFast},
		{"quarantine", core.Quarantine},
	} {
		b.Run(tt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := (&core.Engine{
					Target: target,
					Model: &core.RegisterModel{Spec: &core.CampaignSpec{
						Technique: core.InjectOnRead,
						Config:    core.Config{MaxMBF: 3, Win: core.Win(10)},
					}},
					N:             benchN,
					Seed:          1,
					FailurePolicy: tt.policy,
				}).Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.N() != benchN {
					b.Fatalf("campaign ran %d experiments, want %d", res.N(), benchN)
				}
			}
		})
	}
}
