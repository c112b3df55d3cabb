package study_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/study"
	"multiflip/internal/vm"
)

// sameCampaign fails the test unless two campaigns agree on every
// scheduling-independent field: tallies, dimensional tallies,
// histograms, records and quarantine. Converged and MemoHits are left
// out; which equivalent experiment runs first may move them.
func sameCampaign(t *testing.T, label string, want, got *core.EngineResult) {
	t.Helper()
	if want.Counts != got.Counts || want.Tally.Dims != got.Tally.Dims {
		t.Errorf("%s: tallies differ: %v vs %v", label, want.Counts, got.Counts)
	}
	if want.CrashActivated != got.CrashActivated || want.TrapCounts != got.TrapCounts ||
		want.ActivatedTotal != got.ActivatedTotal {
		t.Errorf("%s: histograms differ", label)
	}
	if !reflect.DeepEqual(want.Experiments, got.Experiments) {
		t.Errorf("%s: experiment records differ", label)
	}
	if !reflect.DeepEqual(want.Quarantined, got.Quarantined) {
		t.Errorf("%s: quarantine records differ", label)
	}
}

// TestStudyJournaledMatchesInMemory runs the tiny study, transitions
// included, as journaled campaigns — one Service per program, sharing
// the program's memo file across its campaigns — and checks every
// campaign and transition matrix equals the in-memory study's.
func TestStudyJournaledMatchesInMemory(t *testing.T) {
	mem := tiny(t)
	memTrans, err := mem.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.JournalDir = t.TempDir()
	jour, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	jourTrans, err := jour.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	if !vm.EnvDisabled().Has(vm.TierConverge) {
		memos, err := filepath.Glob(filepath.Join(opts.JournalDir, "memo-*.mfj"))
		if err != nil {
			t.Fatal(err)
		}
		if len(memos) != len(opts.Programs) {
			t.Fatalf("journaled study wrote %d memo files, want one per program (%d)", len(memos), len(opts.Programs))
		}
	}
	for _, name := range mem.Programs {
		want, got := mem.Data[name], jour.Data[name]
		for _, tech := range core.Techniques() {
			sameCampaign(t, name+" "+tech.String()+" single", &want.Single[tech].EngineResult, &got.Single[tech].EngineResult)
			if len(want.Multi[tech]) != len(got.Multi[tech]) {
				t.Fatalf("%s %s: %d multi-bit campaigns, want %d", name, tech, len(got.Multi[tech]), len(want.Multi[tech]))
			}
			for i, w := range want.Multi[tech] {
				sameCampaign(t, name+" "+tech.String()+" "+w.Spec.Config.String(), &w.EngineResult, &got.Multi[tech][i].EngineResult)
			}
			if *memTrans[name][tech].Matrix != *jourTrans[name][tech].Matrix {
				t.Errorf("%s %s: transition matrices differ", name, tech)
			}
		}
		sameCampaign(t, name+" stuck-at", &want.StuckAt.EngineResult, &got.StuckAt.EngineResult)
	}
}
