package core_test

// Journal wire-format compatibility. The dimensional tally added a
// "dims" key to every checkpoint's tally; journals written before it
// existed carry flat Counts only. The pinned fixture in testdata is
// such an old-format journal (two checkpointed shards, no "dims"
// anywhere): it must load cleanly, keep its flat totals authoritative,
// and fold into an EngineResult — with an empty dimensional breakdown,
// never an error.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

// TestFingerprintStable pins the campaign content addresses of the
// three fault models on CRC32: with every tier on, with convergence off,
// and with each other tier off. The values were computed when each
// campaign spec and the engine still carried their own tier switches;
// journals written then must resume into the same files, so only the
// converge bit may move the campaign address. MULTIFLIP_DISABLE's
// tiers are part of every target's set, so under converge every target
// takes the converge-off address.
func TestFingerprintStable(t *testing.T) {
	want := map[string][2]uint64{ // model -> {all tiers on, converge off}
		"register": {0x144ae26c244f9b1a, 0x287bc83ac12568c8},
		"memfault": {0xbe686447a5ad7719, 0x6109f4c61f6d55c9},
		"stuckat":  {0x4636fa024a4b6ad5, 0x2f87e432b57c4d1a},
	}
	for _, disable := range []vm.Tiers{0, vm.TierConverge, vm.TierSnapshots, vm.TierCompile} {
		tg := targetWith(t, "CRC32", disable)
		for _, m := range engineModels() {
			eng := m.engine(tg)
			eng.N, eng.Seed = 100, 7
			fp := want[m.name][0]
			if disable == vm.TierConverge || vm.EnvDisabled().Has(vm.TierConverge) {
				fp = want[m.name][1]
			}
			if got := core.EngineFingerprint(eng); got != fp {
				t.Errorf("%s, disable %q: campaign fingerprint %#016x, want %#016x", m.name, disable, got, fp)
			}
		}
	}
}

// TestFingerprintRecordsEnvConverge checks that MULTIFLIP_DISABLE
// reaches the campaign fingerprint: the default target's campaigns share
// the converge-disabled target's address exactly when the process runs
// with convergence off, so a journal written with it on never resumes
// into a run with it off, or the other way round.
func TestFingerprintRecordsEnvConverge(t *testing.T) {
	def := target(t, "CRC32")
	off := targetWith(t, "CRC32", vm.TierConverge)
	if def.Disable != vm.EnvDisabled() {
		t.Errorf("default target disables %q, want MULTIFLIP_DISABLE's %q", def.Disable, vm.EnvDisabled())
	}
	envOff := vm.EnvDisabled().Has(vm.TierConverge)
	for _, m := range engineModels() {
		a, b := m.engine(def), m.engine(off)
		a.N, a.Seed = 100, 7
		b.N, b.Seed = 100, 7
		if same := core.EngineFingerprint(a) == core.EngineFingerprint(b); same != envOff {
			t.Errorf("%s: default and converge-disabled fingerprints equal=%v, want %v (MULTIFLIP_DISABLE=%q)",
				m.name, same, envOff, vm.EnvDisabled())
		}
	}
}

// skipUnderEnvConverge skips a test that binds a pinned journal written
// with convergence on: under MULTIFLIP_DISABLE=converge the campaign has
// the converge-off address, which that journal does not hold.
func skipUnderEnvConverge(t *testing.T) {
	t.Helper()
	if vm.EnvDisabled().Has(vm.TierConverge) {
		t.Skip("MULTIFLIP_DISABLE includes converge: the campaign's address differs from the pinned journal's, written with convergence on")
	}
}

// copyFixture copies the pinned old-format journal into a temp dir
// (opening a journal may append to it; the fixture must stay pristine).
func copyFixture(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "oldformat-campaign.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "dims") {
		t.Fatal("fixture is not old-format: it mentions dims")
	}
	p := filepath.Join(t.TempDir(), "oldformat-campaign.mfj")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOldFormatJournalLoads(t *testing.T) {
	j, err := core.OpenFileJournal(copyFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	meta := j.Meta()
	if meta.N != 10 || meta.ShardSize != 5 || meta.Seed != 7 {
		t.Fatalf("meta = %+v", meta)
	}
	st, err := j.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 || st.Pending != 0 || st.ExperimentsDone != 10 {
		t.Fatalf("status = %+v", st)
	}
	// The flat totals survive: [_, 5 benign, 1 exception, 1 hang, 0
	// no-output, 3 SDC] merged over both shards.
	want := [core.NumOutcomes + 1]int{0, 5, 1, 1, 0, 3}
	if st.Tally.Counts != want {
		t.Fatalf("tally counts = %v, want %v", st.Tally.Counts, want)
	}
	if st.Tally.N() != 10 {
		t.Fatalf("tally N = %d, want 10", st.Tally.N())
	}
	// No record carried a breakdown, so the dimensional half is empty —
	// not poisoned, not invented.
	if st.Tally.Dims.N() != 0 {
		t.Fatalf("dims N = %d, want 0 for an old-format journal", st.Tally.Dims.N())
	}

	// Folding the loaded checkpoints must reproduce the same totals.
	results, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d shard results, want 2", len(results))
	}
	var er core.EngineResult
	for _, sr := range results {
		lo, _ := meta.Span(sr.Shard)
		er.Fold(sr, lo)
	}
	if er.Tally.Counts != want || er.Tally.Dims.N() != 0 {
		t.Fatalf("folded tally = %+v", er.Tally)
	}
	if er.ActivatedTotal != 10 || er.Converged != 1 {
		t.Fatalf("folded counters: act=%d conv=%d", er.ActivatedTotal, er.Converged)
	}
}

// TestDimsLoaderDropsWideCells: a dimensional tally cell is 32-bit, so
// the loader drops a cell whose count a cell cannot hold, alone or
// added to an earlier cell at the same coordinates, like any malformed
// cell, and keeps the others.
func TestDimsLoaderDropsWideCells(t *testing.T) {
	b, s := int(core.OutcomeBenign), int(core.OutcomeSDC)
	in := fmt.Sprintf("[[%d,3,1,5],[%d,4,1,%d],[%d,5,2,%d],[%d,5,2,1],[%d,6,2,-1]]",
		b, b, int64(math.MaxInt32)+1, s, math.MaxInt32, s, s)
	var d core.DimTally
	if err := json.Unmarshal([]byte(in), &d); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		o    core.Outcome
		bit  int
		want int
	}{
		{core.OutcomeBenign, 3, 5},
		{core.OutcomeBenign, 4, 0},
		{core.OutcomeSDC, 5, math.MaxInt32},
		{core.OutcomeSDC, 6, 0},
	} {
		if got := d.BitCount(c.o, c.bit); got != c.want {
			t.Errorf("outcome %v bit %d: %d experiments, want %d", c.o, c.bit, got, c.want)
		}
	}
	if d.N() != 5+math.MaxInt32 {
		t.Errorf("loaded tally holds %d experiments, want %d", d.N(), 5+math.MaxInt32)
	}
}

// TestDimsJournalRoundTrip is the forward half of the compatibility
// story: checkpoints written today carry the dimensional breakdown
// through the journal bit-for-bit.
func TestDimsJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.mfj")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := core.CampaignMeta{Fingerprint: 42, Model: "roundtrip", N: 4, ShardSize: 4, Seed: 1}
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	sr := core.ShardResult{Shard: 0}
	exps := []core.Experiment{
		{Bit: 3, Dir: core.Dir0to1, Outcome: core.OutcomeBenign, Activated: 1},
		{Bit: 3, Dir: core.Dir1to0, Outcome: core.OutcomeSDC, Activated: 1},
		{Bit: 63, Dir: core.Dir0to1, Outcome: core.OutcomeException, Activated: 1},
		{Bit: -1, Dir: core.DirUnknown, Outcome: core.OutcomeSDC, Activated: 2},
	}
	for i := range exps {
		sr.Add(&exps[i], i == 0)
	}
	if err := j.Checkpoint(sr); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	results, err := j2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d shard results, want 1", len(results))
	}
	if got := results[0].Tally; got != sr.Tally {
		t.Fatalf("tally did not round-trip:\n got %+v\nwant %+v", got, sr.Tally)
	}
	if results[0].Converged != 1 {
		t.Fatalf("Converged did not round-trip: got %d, want 1", results[0].Converged)
	}
	d := &results[0].Tally.Dims
	if d.Count(core.OutcomeBenign, 3, core.Dir0to1) != 1 ||
		d.Count(core.OutcomeSDC, 3, core.Dir1to0) != 1 ||
		d.Count(core.OutcomeException, 63, core.Dir0to1) != 1 ||
		d.Count(core.OutcomeSDC, -1, core.DirUnknown) != 1 {
		t.Fatalf("dimensional cells did not round-trip: %+v", d)
	}
}

// TestRetiredRungJournalLoads pins that journals outlive the tiers that
// wrote them. The fixture was written when the supervision ladder still
// had a "nofuse" rung (full -> nocompile -> nofuse -> interp): a
// quarantine campaign on a broken target whose four experiments failed
// on every rung, checkpointed as two shards. It must list in InspectDir
// (the scan fi -status renders), and a resumed campaign must fold its
// quarantine records, retired rung included, without re-running
// anything.
func TestRetiredRungJournalLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "nofuse-quarantine.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	eng := nofuseEngine(t)
	dir := t.TempDir()
	name := fmt.Sprintf("campaign-%016x.mfj", core.EngineFingerprint(eng))
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("InspectDir listed %d campaigns, want 1", len(infos))
	}
	if st := infos[0].Status; st.Done != 2 || st.Pending != 0 || st.Quarantined != 4 {
		t.Fatalf("status = %+v, want 2 done shards and 4 quarantined experiments", st)
	}

	eng.Service = &core.Service{Dir: dir, Resume: true, ShardSize: 2}
	restore := core.SetExperimentHook(func(idx int) {
		t.Errorf("experiment %d re-ran; the journal's checkpoints should fold", idx)
	})
	defer restore()
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Count(core.OutcomeInternal); got != 4 {
		t.Fatalf("Internal tally = %d, want 4", got)
	}
	if len(res.Quarantined) != 4 {
		t.Fatalf("folded %d quarantine records, want 4", len(res.Quarantined))
	}
	for i, rec := range res.Quarantined {
		if rec.Index != i || strings.Join(rec.Tiers, " -> ") != "full -> nocompile -> nofuse -> interp" ||
			len(rec.Errs) != 4 {
			t.Errorf("record %d = %+v, want the four-rung ladder it was written with", i, rec)
		}
	}
}

// TestMemoJournalLoads pins that journal directories written while
// campaigns kept a fault-equivalence memo stay usable. The fixture is
// such a campaign: four CRC32 inject-on-write experiments pinned to one
// SDC location, run on one worker in two shards, so three of them were
// resolved from the memo and the shards' done records carry "memo"
// counts of 1 and 2. Its directory also held the program's memo file.
// The campaign must list in InspectDir, and a resumed campaign must
// fold its checkpoints without re-running anything and match a fresh
// in-memory run.
func TestMemoJournalLoads(t *testing.T) {
	skipUnderEnvConverge(t)
	journal, err := os.ReadFile(filepath.Join("testdata", "memo-campaign.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), `"memo":1`) || !strings.Contains(string(journal), `"memo":2`) {
		t.Fatal("fixture carries no nonzero memo counts")
	}
	const memoFile = "memo-c161e05593916e85.mfj"
	memo, err := os.ReadFile(filepath.Join("testdata", memoFile))
	if err != nil {
		t.Fatal(err)
	}
	eng := func() *core.Engine { return memoEngine(t) }
	dir := t.TempDir()
	name := fmt.Sprintf("campaign-%016x.mfj", core.EngineFingerprint(eng()))
	if err := os.WriteFile(filepath.Join(dir, name), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, memoFile), memo, 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || filepath.Base(infos[0].Path) != name {
		t.Fatalf("InspectDir listed %+v, want the one campaign %s", infos, name)
	}
	if st := infos[0].Status; st.Done != 2 || st.Pending != 0 || st.Tally.Count(core.OutcomeSDC) != 4 {
		t.Fatalf("status = %+v, want 2 done shards and 4 SDCs", st)
	}

	want, err := eng().Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed := eng()
	resumed.Service = &core.Service{Dir: dir, Resume: true, ShardSize: 2}
	restore := core.SetExperimentHook(func(idx int) {
		t.Errorf("experiment %d re-ran; the journal's checkpoints should fold", idx)
	})
	defer restore()
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	tiercontract.SameResult(t, "memo-era journal resumed", want, got, true)
}

// TestStaticPrunedJournalLoads pins that journals written while
// campaigns pruned statically dead flips stay usable. The fixture is a
// CRC32 single-bit inject-on-write campaign of 40 recorded experiments,
// run on one worker in two shards; its done records carry "spruned"
// counts of 1 and 3 for the experiments the liveness tier classified
// Benign without executing. The campaign must list in InspectDir, and a
// resumed campaign must fold its checkpoints without re-running
// anything and match a fresh run.
func TestStaticPrunedJournalLoads(t *testing.T) {
	skipUnderEnvConverge(t)
	journal, err := os.ReadFile(filepath.Join("testdata", "spruned-campaign.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	spruned := 0
	for _, m := range regexp.MustCompile(`"spruned":(\d+)`).FindAllSubmatch(journal, -1) {
		n, _ := strconv.Atoi(string(m[1]))
		spruned += n
	}
	if spruned == 0 {
		t.Fatal("fixture carries no nonzero spruned counts")
	}
	eng := func() *core.Engine { return sprunedEngine(t) }
	dir := t.TempDir()
	name := fmt.Sprintf("campaign-%016x.mfj", core.EngineFingerprint(eng()))
	if err := os.WriteFile(filepath.Join(dir, name), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || filepath.Base(infos[0].Path) != name || infos[0].Err != nil {
		t.Fatalf("InspectDir listed %+v, want the one campaign %s", infos, name)
	}
	if st := infos[0].Status; st.Done != 2 || st.Pending != 0 || st.ExperimentsDone != 40 {
		t.Fatalf("status = %+v, want 2 done shards and 40 experiments", st)
	}

	want, err := eng().Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed := eng()
	resumed.Service = &core.Service{Dir: dir, Resume: true, ShardSize: 20}
	restore := core.SetExperimentHook(func(idx int) {
		t.Errorf("experiment %d re-ran; the journal's checkpoints should fold", idx)
	})
	defer restore()
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	tiercontract.SameResult(t, "static-pruning-era journal resumed", want, got, false)
	// The resumed campaign folds the journal's convergence counts, taken
	// under the rules of its day. A fresh run converges in every
	// experiment those counted, since the rules have only grown, and in
	// more: the experiments the journal pruned never ran, and output
	// convergence also ends a run right after CRC32's one output, its
	// last instruction before main returns, where the journal's rules
	// checked nothing. Run today, the campaign converges 6 times.
	conv := 0
	for _, m := range regexp.MustCompile(`"conv":(\d+)`).FindAllSubmatch(journal, -1) {
		n, _ := strconv.Atoi(string(m[1]))
		conv += n
	}
	if got.Converged != conv {
		t.Fatalf("resumed Converged = %d, want the journal's %d", got.Converged, conv)
	}
	if want.Converged != 6 {
		t.Fatalf("fresh run Converged = %d, want 6", want.Converged)
	}
}

// nofuseEngine is the campaign of testdata/nofuse-quarantine.mfj, run
// in shards of 2.
func nofuseEngine(t *testing.T) *core.Engine {
	eng := registerEngine(brokenTarget(t))
	eng.N, eng.Seed, eng.Workers, eng.Record = 4, 5, 1, true
	eng.FailurePolicy = core.Quarantine
	return eng
}

// memoEngine is the campaign of testdata/memo-campaign.mfj, run in
// shards of 2.
func memoEngine(t *testing.T) *core.Engine {
	pin := core.Pin{Cand: 13308, Bit: 0}
	return &core.Engine{
		Target: target(t, "CRC32"),
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
			Pins:      []core.Pin{pin, pin, pin, pin},
		}},
		N: 4, Seed: 3, Record: true,
	}
}

// sprunedEngine is the campaign of testdata/spruned-campaign.mfj, run in
// shards of 20.
func sprunedEngine(t *testing.T) *core.Engine {
	return &core.Engine{
		Target: target(t, "CRC32"),
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
		}},
		N: 40, Seed: 11, Record: true,
	}
}

// TestLegacyJournalsBesideLog pins that a directory may hold journals
// of both layouts: the four pinned campaign files, as older versions
// wrote one per campaign, beside a log holding two campaigns run today.
// InspectDir lists all six, and each resumes without executing a
// checkpointed shard — the pinned ones from their own files, which
// stay.
func TestLegacyJournalsBesideLog(t *testing.T) {
	skipUnderEnvConverge(t)
	dir := t.TempDir()
	logged := []*core.Engine{registerEngine(target(t, "CRC32")), registerEngine(target(t, "qsort"))}
	for _, eng := range logged {
		eng.N, eng.Seed = 12, 4
		eng.Service = &core.Service{Dir: dir, ShardSize: 4}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// oldformat-campaign.mfj holds a synthetic campaign: no engine has
	// its fingerprint, so it resumes through its journal alone.
	const oldFP = 1234567890123
	pinned := []struct {
		fixture   string
		eng       *core.Engine
		shardSize int
	}{
		{"nofuse-quarantine.mfj", nofuseEngine(t), 2},
		{"memo-campaign.mfj", memoEngine(t), 2},
		{"spruned-campaign.mfj", sprunedEngine(t), 20},
		{"oldformat-campaign.mfj", nil, 5},
	}
	files := map[string]bool{}
	for _, p := range pinned {
		data, err := os.ReadFile(filepath.Join("testdata", p.fixture))
		if err != nil {
			t.Fatal(err)
		}
		fp := uint64(oldFP)
		if p.eng != nil {
			fp = core.EngineFingerprint(p.eng)
		}
		name := fmt.Sprintf("campaign-%016x.mfj", fp)
		files[name] = true
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(pinned)+len(logged) {
		t.Fatalf("InspectDir listed %d campaigns, want %d: %+v", len(infos), len(pinned)+len(logged), infos)
	}
	inLog := 0
	for _, in := range infos {
		switch name := filepath.Base(in.Path); {
		case in.Err != nil:
			t.Errorf("%s: %v", name, in.Err)
		case in.Status.Done != in.Status.Shards:
			t.Errorf("%s: %d of %d shards done, want all", name, in.Status.Done, in.Status.Shards)
		case name == "journal.mfj":
			inLog++
		case !files[name]:
			t.Errorf("unexpected entry %s", name)
		}
	}
	if inLog != len(logged) {
		t.Errorf("InspectDir listed %d campaigns of the log, want %d", inLog, len(logged))
	}

	restore := core.SetExperimentHook(func(idx int) {
		t.Errorf("experiment %d re-ran; the journal's checkpoints should fold", idx)
	})
	defer restore()
	for _, eng := range logged {
		eng.Service.Resume = true
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pinned {
		if p.eng == nil {
			j, err := core.OpenCampaignJournal(dir, "w", oldFP, true, core.FileJournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, state, err := j.Claim("w", time.Minute); err != nil || state != core.ClaimDrained {
				t.Errorf("%s: claim state %v (%v), want a drained campaign", p.fixture, state, err)
			}
			if res, err := j.Results(); err != nil || len(res) != 2 {
				t.Errorf("%s: %d checkpoints (%v), want 2", p.fixture, len(res), err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		p.eng.Service = &core.Service{Dir: dir, Resume: true, ShardSize: p.shardSize}
		if _, err := p.eng.Run(); err != nil {
			t.Fatalf("%s: %v", p.fixture, err)
		}
	}
	for name := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("resuming removed the pinned journal: %v", err)
		}
	}
}
