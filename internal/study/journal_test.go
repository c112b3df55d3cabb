package study_test

import (
	"path/filepath"
	"reflect"
	"strings"
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

// TestStudyJournaledMatchesInMemory reruns the tiny study, transitions
// included, with other worker counts and as journaled campaigns — one
// Service per program, shared by its campaigns while they run at once —
// and checks every campaign, in grid order, and every transition matrix
// equals the default in-memory study's, and the progress log the
// one-worker run's.
func TestStudyJournaledMatchesInMemory(t *testing.T) {
	mem := tiny(t)
	memTrans, err := mem.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	var serialLog string
	for _, tc := range []struct {
		name    string
		journal bool
		workers int
	}{
		{"journaled/workers=1", true, 1},
		{"journaled/workers=3", true, 3},
		{"memory/workers=3", false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log strings.Builder
			opts := tinyOpts()
			opts.Workers = tc.workers
			opts.Log = &log
			if tc.journal {
				opts.JournalDir = t.TempDir()
			}
			got, err := study.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			gotTrans, err := got.RunTransitions()
			if err != nil {
				t.Fatal(err)
			}
			if serialLog == "" {
				serialLog = log.String()
			} else if log.String() != serialLog {
				t.Errorf("progress log\n%s\nwant the one-worker run's\n%s", log.String(), serialLog)
			}
			if tc.journal && !vm.EnvDisabled().Has(vm.TierConverge) {
				memos, err := filepath.Glob(filepath.Join(opts.JournalDir, "memo-*.mfj"))
				if err != nil {
					t.Fatal(err)
				}
				if len(memos) != len(opts.Programs) {
					t.Fatalf("journaled study wrote %d memo files, want one per program (%d)", len(memos), len(opts.Programs))
				}
			}
			for _, name := range mem.Programs {
				want, got := mem.Data[name], got.Data[name]
				for _, tech := range core.Techniques() {
					sameCampaign(t, name+" "+tech.String()+" single", &want.Single[tech].EngineResult, &got.Single[tech].EngineResult)
					if len(want.Multi[tech]) != len(got.Multi[tech]) {
						t.Fatalf("%s %s: %d multi-bit campaigns, want %d", name, tech, len(got.Multi[tech]), len(want.Multi[tech]))
					}
					for i, w := range want.Multi[tech] {
						g := got.Multi[tech][i]
						if g.Spec.Config != w.Spec.Config {
							t.Errorf("%s %s: multi-bit campaign %d is %s, want %s", name, tech, i, g.Spec.Config, w.Spec.Config)
						}
						sameCampaign(t, name+" "+tech.String()+" "+w.Spec.Config.String(), &w.EngineResult, &g.EngineResult)
					}
					if *memTrans[name][tech].Matrix != *gotTrans[name][tech].Matrix {
						t.Errorf("%s %s: transition matrices differ", name, tech)
					}
				}
				sameCampaign(t, name+" stuck-at", &want.StuckAt.EngineResult, &got.StuckAt.EngineResult)
				// The study keeps no Service, so each program's memos are
				// freed once its last campaign ends.
				for _, tech := range core.Techniques() {
					for _, r := range append([]*core.CampaignResult{got.Single[tech]}, got.Multi[tech]...) {
						if r.Spec.Service != nil {
							t.Errorf("%s %s %s: result keeps the program's Service", name, tech, r.Spec.Config)
						}
					}
				}
				if got.StuckAt.Spec.Service != nil {
					t.Errorf("%s stuck-at: result keeps the program's Service", name)
				}
			}
		})
	}
}

// campaignFiles counts the campaign journals in dir.
func campaignFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "campaign-*.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestRunRejectsBadPrograms checks that an unknown or repeated program
// name fails the study before any campaign runs.
func TestRunRejectsBadPrograms(t *testing.T) {
	for _, tc := range []struct {
		programs []string
		bad      string
	}{
		{[]string{"CRC32", "nope"}, `"nope"`},
		{[]string{"CRC32", "histo", "CRC32"}, `"CRC32"`},
	} {
		opts := tinyOpts()
		opts.Programs = tc.programs
		opts.JournalDir = t.TempDir()
		_, err := study.Run(opts)
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("Programs %q: error %v, want one naming %s", tc.programs, err, tc.bad)
		}
		if n := campaignFiles(t, opts.JournalDir); n != 0 {
			t.Errorf("Programs %q: %d campaign journals written before the error", tc.programs, n)
		}
	}
}

// panicClassifier fails every experiment at every supervision tier.
type panicClassifier struct{}

func (panicClassifier) Name() string { return "panic" }

func (panicClassifier) Classify([]byte, *vm.Result) core.Outcome { panic("classifier boom") }

// TestRunFailsFastThroughPool checks that a failing campaign stops the
// study: the error surfaces, and no campaign starts after it, so at most
// Workers campaigns ever opened a journal.
func TestRunFailsFastThroughPool(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = 2
	opts.Classifier = panicClassifier{}
	opts.JournalDir = t.TempDir()
	_, err := study.Run(opts)
	if err == nil || !strings.Contains(err.Error(), "CRC32 experiment 0 failed at every supervision tier") ||
		!strings.Contains(err.Error(), "classifier boom") {
		t.Fatalf("error %v, want CRC32's first experiment failing with the classifier's panic", err)
	}
	if n := campaignFiles(t, opts.JournalDir); n == 0 || n > opts.Workers {
		t.Errorf("%d campaign journals after the failure, want 1 to %d", n, opts.Workers)
	}
}
