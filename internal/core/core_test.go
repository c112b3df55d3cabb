package core_test

import (
	"math"
	"sync"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

func testRng() *xrand.Rand { return xrand.New(1) }

type targetKey struct {
	name    string
	disable vm.Tiers
}

var (
	targetMu    sync.Mutex
	targetCache = make(map[targetKey]*core.Target)
)

// target builds and profiles a benchmark once per test binary.
func target(t *testing.T, name string) *core.Target { return targetWith(t, name, 0) }

// targetWith is target prepared without the disabled tiers.
func targetWith(t *testing.T, name string, disable vm.Tiers) *core.Target {
	t.Helper()
	targetMu.Lock()
	defer targetMu.Unlock()
	key := targetKey{name, disable}
	if tg, ok := targetCache[key]; ok {
		return tg
	}
	b, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := core.NewTargetOpts(name, p, core.TargetOptions{Disable: disable})
	if err != nil {
		t.Fatal(err)
	}
	targetCache[key] = tg
	return tg
}

func TestTechniqueStrings(t *testing.T) {
	if core.InjectOnRead.String() != "inject-on-read" ||
		core.InjectOnWrite.String() != "inject-on-write" {
		t.Fatal("technique names wrong")
	}
	if len(core.Techniques()) != 2 {
		t.Fatal("expected two techniques")
	}
}

func TestWinSizeNotation(t *testing.T) {
	tests := []struct {
		w    core.WinSize
		want string
	}{
		{core.Win(0), "0"},
		{core.Win(100), "100"},
		{core.WinRange(2, 10), "RND(2-10)"},
		{core.WinRange(101, 1000), "RND(101-1000)"},
	}
	for _, tt := range tests {
		if got := tt.w.String(); got != tt.want {
			t.Errorf("WinSize%v = %q, want %q", tt.w, got, tt.want)
		}
	}
}

func TestWinSizeSampler(t *testing.T) {
	s := core.Win(7).Sampler()
	if got := s(nil); got != 7 {
		t.Fatalf("fixed sampler = %d", got)
	}
	rng := testRng()
	rs := core.WinRange(11, 100).Sampler()
	for i := 0; i < 1000; i++ {
		v := rs(rng)
		if v < 11 || v > 100 {
			t.Fatalf("RND(11-100) sampled %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-window Sampler did not panic")
		}
	}()
	core.Win(0).Sampler()
}

func TestParseWinSize(t *testing.T) {
	tests := []struct {
		give    string
		want    core.WinSize
		wantErr bool
	}{
		{give: "0", want: core.Win(0)},
		{give: "4", want: core.Win(4)},
		{give: "1000", want: core.Win(1000)},
		{give: " 10 ", want: core.Win(10)},
		{give: "2-10", want: core.WinRange(2, 10)},
		{give: "101-1000", want: core.WinRange(101, 1000)},
		{give: "", wantErr: true},
		{give: "x", wantErr: true},
		{give: "-1", wantErr: true},
		{give: "10-2", wantErr: true},
		{give: "0-5", wantErr: true},
	}
	for _, tt := range tests {
		got, err := core.ParseWinSize(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseWinSize(%q) accepted, want error", tt.give)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWinSize(%q): %v", tt.give, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseWinSize(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestStandardTableI(t *testing.T) {
	ms := core.StandardMaxMBF()
	if len(ms) != 10 || ms[0] != 2 || ms[9] != 30 {
		t.Fatalf("max-MBF values = %v", ms)
	}
	ws := core.StandardWinSizes()
	if len(ws) != 9 {
		t.Fatalf("win-size count = %d, want 9", len(ws))
	}
	if !ws[0].IsZero() || ws[8].String() != "1000" {
		t.Fatalf("win-size endpoints wrong: %v", ws)
	}
	if got := len(core.MultiRegisterConfigs()); got != 90 {
		t.Fatalf("multi-register clusters = %d, want 90 (so 91 campaigns per technique, 182 per program)", got)
	}
}

func TestOutcomeProperties(t *testing.T) {
	// Outcomes() enumerates the paper's categories only: OutcomeInternal
	// (runtime quarantine, not a §III-E classification) stays out.
	if len(core.Outcomes()) != core.NumOutcomes-1 {
		t.Fatal("outcome enumeration incomplete")
	}
	for _, o := range core.Outcomes() {
		if o == core.OutcomeInternal {
			t.Fatal("OutcomeInternal must not be a paper category")
		}
	}
	if core.OutcomeInternal.ContributesToResilience() || core.OutcomeInternal.IsDetection() {
		t.Error("quarantined experiments say nothing about the workload")
	}
	if core.OutcomeInternal.String() != "Internal" {
		t.Errorf("OutcomeInternal renders as %q", core.OutcomeInternal)
	}
	for _, o := range core.Outcomes() {
		if o == core.OutcomeSDC {
			if o.ContributesToResilience() || o.IsDetection() {
				t.Error("SDC misclassified")
			}
			continue
		}
		if !o.ContributesToResilience() {
			t.Errorf("%v should contribute to resilience", o)
		}
	}
	for _, o := range []core.Outcome{core.OutcomeException, core.OutcomeHang, core.OutcomeNoOutput} {
		if !o.IsDetection() {
			t.Errorf("%v should be Detection", o)
		}
	}
	if core.OutcomeBenign.IsDetection() {
		t.Error("Benign is not Detection")
	}
}

func TestNewTargetProfiles(t *testing.T) {
	tg := target(t, "CRC32")
	if tg.GoldenDyn == 0 || len(tg.Golden) == 0 {
		t.Fatal("profile empty")
	}
	if tg.ReadCands <= tg.WriteCands {
		t.Fatal("expected more read candidates than write candidates")
	}
	if tg.Candidates(core.InjectOnRead) != tg.ReadCands ||
		tg.Candidates(core.InjectOnWrite) != tg.WriteCands {
		t.Fatal("Candidates accessor wrong")
	}
}

func TestRunCampaignSingleBit(t *testing.T) {
	tg := target(t, "CRC32")
	res, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.SingleBit(),
		}},
		N:    300,
		Seed: 1,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 300 {
		t.Fatalf("N = %d", res.N())
	}
	// Every single-bit experiment activates exactly one error (candidates
	// are live by construction).
	if res.ActivatedTotal != 300 {
		t.Fatalf("activated total = %d, want 300", res.ActivatedTotal)
	}
	// Sanity: the campaign must produce a mix of outcomes, not all one
	// category.
	if res.Count(core.OutcomeBenign) == res.N() || res.Count(core.OutcomeSDC) == res.N() {
		t.Fatalf("degenerate outcome distribution: %v", res.Counts)
	}
	total := 0.0
	for _, o := range core.Outcomes() {
		total += res.Pct(o)
	}
	if total < 99.999 || total > 100.001 {
		t.Fatalf("percentages sum to %v", total)
	}
	if r := res.Resilience(); r < 0 || r > 1 {
		t.Fatalf("resilience = %v", r)
	}
}

func TestRunCampaignDeterministicAcrossWorkers(t *testing.T) {
	tg := target(t, "histo")
	run := func(workers int) *core.EngineResult {
		res, err := (&core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite,
				Config:    core.Config{MaxMBF: 3, Win: core.Win(10)},
			}},
			N:       200,
			Seed:    42,
			Workers: workers,
			Record:  true,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if a.Counts != b.Counts {
		t.Fatalf("counts differ across worker counts: %v vs %v", a.Counts, b.Counts)
	}
	for i := range a.Experiments {
		if a.Experiments[i] != b.Experiments[i] {
			t.Fatalf("experiment %d differs across worker counts", i)
		}
	}
}

func TestRunCampaignSeedMatters(t *testing.T) {
	tg := target(t, "histo")
	run := func(seed uint64) [core.NumOutcomes + 1]int {
		res, err := (&core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.SingleBit(),
			}},
			N:    200,
			Seed: seed,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts
	}
	if run(1) == run(2) {
		t.Log("note: two seeds produced identical counts (possible but unlikely)")
	}
}

func TestMultiBitActivationBounded(t *testing.T) {
	tg := target(t, "qsort")
	res, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.Config{MaxMBF: 30, Win: core.Win(1)},
		}},
		N:      150,
		Seed:   7,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Experiments {
		if e.Activated < 1 || e.Activated > 30 {
			t.Fatalf("activated = %d outside [1,30]", e.Activated)
		}
	}
	// Fig 3's premise: crashes generally happen after only a few activated
	// errors, so the campaign must contain crashed experiments with fewer
	// than 30 activations.
	under := 0
	for a := 0; a < 30; a++ {
		under += res.CrashActivated[a]
	}
	if res.Count(core.OutcomeException) > 0 && under == 0 {
		t.Fatal("all crashed experiments activated the full 30 errors")
	}
}

func TestSameRegisterClamp(t *testing.T) {
	tg := target(t, "CRC32")
	res, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.Config{MaxMBF: 30, Win: core.Win(0)},
		}},
		N:      150,
		Seed:   9,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Experiments {
		// Same-register flips are clamped to the register width, so i1
		// targets activate once, i8 targets at most 8 times, etc.
		if e.Activated < 1 || e.Activated > 30 {
			t.Fatalf("activated = %d", e.Activated)
		}
	}
}

func TestPinnedCampaignReproducesExperiments(t *testing.T) {
	// The §IV-C3 mechanism: re-running a recorded single-bit campaign with
	// pinned (candidate, bit) pairs must reproduce the outcomes exactly.
	tg := target(t, "stringsearch")
	first, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.SingleBit(),
		}},
		N:      200,
		Seed:   11,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pins := make([]core.Pin, len(first.Experiments))
	for i, e := range first.Experiments {
		pins[i] = core.Pin{Cand: e.Cand, Bit: e.Bit}
	}
	second, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.SingleBit(),
			Pins:      pins,
		}},
		N:      len(pins),
		Seed:   9999, // seed must not matter for pinned single-bit runs
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if second.N() != first.N() {
		t.Fatalf("pinned N = %d, want %d", second.N(), first.N())
	}
	for i := range first.Experiments {
		if first.Experiments[i].Outcome != second.Experiments[i].Outcome {
			t.Fatalf("experiment %d outcome changed under pinning: %v -> %v",
				i, first.Experiments[i].Outcome, second.Experiments[i].Outcome)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	tg := target(t, "CRC32")
	model := func(tech core.Technique, cfg core.Config) core.FaultModel {
		return &core.RegisterModel{Spec: &core.CampaignSpec{Technique: tech, Config: cfg}}
	}
	tooMany := math.MaxInt32
	tooMany++ // more experiments than a dimensional tally cell counts
	bad := []*core.Engine{
		{Model: model(core.InjectOnRead, core.SingleBit()), N: 1},             // no target
		{Target: tg, Model: model(0, core.SingleBit()), N: 1},                 // no technique
		{Target: tg, Model: model(core.InjectOnRead, core.Config{}), N: 1},    // MaxMBF 0
		{Target: tg, Model: model(core.InjectOnRead, core.SingleBit()), N: 0}, // no N
		{Target: tg, Model: model(core.InjectOnRead, core.SingleBit()), N: tooMany},
		{Target: tg, Model: model(core.InjectOnRead, core.Config{MaxMBF: 2, Win: core.WinSize{Lo: 5, Hi: 2}}), N: 1},
	}
	for i, e := range bad {
		if _, err := e.Run(); err == nil {
			t.Errorf("campaign %d accepted, want error", i)
		}
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	tg := target(t, "histo")
	run := func(n int) float64 {
		res, err := (&core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.SingleBit(),
			}},
			N:    n,
			Seed: 5,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.CI95(core.OutcomeSDC)
	}
	small, large := run(50), run(500)
	if small != 0 && large >= small {
		t.Fatalf("CI95 did not shrink: n=50 -> %v, n=500 -> %v", small, large)
	}
}

func TestConfigStrings(t *testing.T) {
	if core.SingleBit().String() != "single-bit" {
		t.Fatal("single-bit label wrong")
	}
	c := core.Config{MaxMBF: 3, Win: core.WinRange(2, 10)}
	if c.String() != "mbf=3 win=RND(2-10)" {
		t.Fatalf("config string = %q", c.String())
	}
	if core.SingleBit().IsSingle() != true || c.IsSingle() {
		t.Fatal("IsSingle wrong")
	}
}
