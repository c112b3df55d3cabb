package study_test

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/study"
	"multiflip/internal/vm"
)

// sameCampaign fails the test unless two campaigns agree on every
// field: tallies, dimensional tallies, histograms, the converged count,
// records and quarantine.
func sameCampaign(t *testing.T, label string, want, got *core.EngineResult) {
	t.Helper()
	if want.Counts != got.Counts || want.Tally.Dims != got.Tally.Dims {
		t.Errorf("%s: tallies differ: %v vs %v", label, want.Counts, got.Counts)
	}
	if want.Converged != got.Converged {
		t.Errorf("%s: converged counts differ: %d vs %d", label, want.Converged, got.Converged)
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
// included, with other worker counts and as journaled campaigns, and
// checks every campaign, in grid order, and every transition matrix
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
				sameCampaign(t, name+" stuck-at", want.StuckAt, got.StuckAt)
			}
		})
	}
}

// journaledCampaigns counts the campaigns journaled in dir.
func journaledCampaigns(t *testing.T, dir string) int {
	t.Helper()
	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(infos)
}

// TestJournaledStudyKeepsOneLog runs the tiny study and its transitions
// journaled: every campaign appends to the directory's one log, which
// is the only file the study leaves there, and the rendered report is
// byte-identical to the in-memory study's.
func TestJournaledStudyKeepsOneLog(t *testing.T) {
	var want strings.Builder
	if err := tiny(t).RenderAll(&want, true); err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.JournalDir = t.TempDir()
	s, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := s.RenderAll(&got, true); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("journaled report differs from the in-memory one:\n%s\nwant\n%s", got.String(), want.String())
	}
	entries, err := os.ReadDir(opts.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "journal.mfj" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("journal directory holds %d files %v, want the one log journal.mfj", len(entries), names)
	}
	// Every campaign is in it: per program, a single-bit and six
	// multi-bit campaigns per technique and a stuck-at campaign, then a
	// transition rerun per technique.
	if n, want := journaledCampaigns(t, opts.JournalDir), 2*(2*(1+2*3)+1+2); n != want {
		t.Errorf("the log lists %d campaigns, want %d", n, want)
	}
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
		if n := journaledCampaigns(t, opts.JournalDir); n != 0 {
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
	if n := journaledCampaigns(t, opts.JournalDir); n == 0 || n > opts.Workers {
		t.Errorf("%d campaign journals after the failure, want 1 to %d", n, opts.Workers)
	}
}

// countingClassifier is the exact classifier, counting its calls.
type countingClassifier struct{ calls *atomic.Int64 }

func (countingClassifier) Name() string { return "counting" }

func (c countingClassifier) Classify(golden []byte, res *vm.Result) core.Outcome {
	c.calls.Add(1)
	return core.ExactClassifier{}.Classify(golden, res)
}

// multiBitPanicClassifier fails every experiment that flipped two bits
// or more, at every supervision tier, and counts the experiments it
// classifies.
type multiBitPanicClassifier struct{ countingClassifier }

func (c multiBitPanicClassifier) Classify(golden []byte, res *vm.Result) core.Outcome {
	if res.Injected >= 2 {
		panic("multi-bit boom")
	}
	return c.countingClassifier.Classify(golden, res)
}

// TestRunInterruptsRunningCampaigns checks that a failing campaign stops
// the campaigns already running. On two workers the read single-bit and
// multi-bit campaigns start together and the multi-bit one fails at
// once; the single-bit one must then stop long before its N experiments
// instead of running to its end, and the study must return the
// multi-bit campaign's error, not the interrupt.
func TestRunInterruptsRunningCampaigns(t *testing.T) {
	const n = 20000
	var calls atomic.Int64
	_, err := study.Run(study.Options{
		N:          n,
		Seed:       1,
		Programs:   []string{"CRC32"},
		MaxMBFs:    []int{30},
		WinSizes:   []core.WinSize{core.Win(0)},
		NoStuckAt:  true,
		Workers:    2,
		Classifier: multiBitPanicClassifier{countingClassifier{&calls}},
	})
	if err == nil || errors.Is(err, core.ErrInterrupted) || !strings.Contains(err.Error(), "multi-bit boom") {
		t.Fatalf("error %v, want the multi-bit campaign's failure", err)
	}
	if c := calls.Load(); c >= n/4 {
		t.Errorf("%d experiments classified, want far fewer than the single-bit campaign's %d", c, n)
	}
}

// TestTransitionsUseStudyClassifier checks that the transition reruns
// classify with the study's classifier, like the single-bit campaigns
// whose outcomes they are compared with.
func TestTransitionsUseStudyClassifier(t *testing.T) {
	var calls atomic.Int64
	opts := tinyOpts()
	opts.NoStuckAt = true
	opts.Classifier = countingClassifier{&calls}
	s, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	if _, err := s.RunTransitions(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == before {
		t.Error("the transition reruns classified no experiment with the study's classifier")
	}
}
