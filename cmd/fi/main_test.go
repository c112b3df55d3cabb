package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiflip/internal/vm"
)

// base returns a valid option set for tests to break one field at a time.
func base() options {
	return options{prog: "CRC32", model: "flip", tech: "read", mbf: 1,
		winSpec: "0", n: 10, seed: 1, hang: 10, workers: 1}
}

// TestRunRejectsUnknowns checks that every bad flag fails with its own
// error. The cases that pair a flag typo with an unknown program prove
// the flag is checked before target preparation, which would otherwise
// fail first on the program.
func TestRunRejectsUnknowns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"unknown program", func(o *options) { o.prog = "no-such-prog" }, "unknown benchmark"},
		{"unknown technique", func(o *options) { o.tech = "sideways" }, "unknown technique"},
		{"unknown technique, unknown program", func(o *options) {
			o.prog, o.tech = "no-such-prog", "sideways"
		}, "unknown technique"},
		{"zero mbf, unknown program", func(o *options) { o.prog, o.mbf = "no-such-prog", 0 }, "-mbf must be >= 1"},
		{"zero n, unknown program", func(o *options) { o.prog, o.n = "no-such-prog", 0 }, "-n must be >= 1"},
		{"unknown model", func(o *options) { o.model = "no-such-model" }, "unknown model"},
		{"stuck-at zero window", func(o *options) { o.model = "stuckat" }, "stuck-at window"},
		{"resume without journal", func(o *options) { o.resume = true }, "-resume needs -journal"},
		{"status without journal", func(o *options) { o.status = true }, "-status needs -journal"},
	}
	for _, c := range cases {
		o := base()
		c.mut(&o)
		if err := run(o); err == nil {
			t.Errorf("%s accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestDisableFlag checks the -disable flag: it names tiers the way
// MULTIFLIP_DISABLE and study.Options.Disable do, rejects unknown names
// (the retired "fuse" tier included) with the valid list, and
// "snapshots" yields a target that keeps no snapshots but still records
// the golden trace convergence needs.
func TestDisableFlag(t *testing.T) {
	o := base()
	if err := o.disable.Set("snapshots"); err != nil {
		t.Fatal(err)
	}
	tg, err := o.target()
	if err != nil {
		t.Fatal(err)
	}
	if want := vm.TierSnapshots | vm.EnvDisabled(); tg.Disable != want {
		t.Errorf("target disables %q, want %q", tg.Disable, want)
	}
	if len(tg.Snapshots) != 0 {
		t.Errorf("-disable snapshots kept %d snapshots", len(tg.Snapshots))
	}
	if tg.Trace == nil && !vm.EnvDisabled().Has(vm.TierConverge) {
		t.Error("-disable snapshots lost the golden trace")
	}
	for _, bad := range []string{"snapshot", "fuse", "liveness"} {
		if err := o.disable.Set(bad); err == nil || !strings.HasSuffix(err.Error(), "(valid: snapshots, compile, converge)") {
			t.Errorf("-disable %s: want an error naming the valid tiers, got %v", bad, err)
		}
	}
}

// TestStatusRendersRetiredRung renders -status over a journal written
// when the supervision ladder still had a "nofuse" rung (the fixture of
// internal/core's TestRetiredRungJournalLoads): its quarantined
// experiments must still be reported.
func TestStatusRendersRetiredRung(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "nofuse-quarantine.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "campaign-ff630f794b9d72bd.mfj"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runStatus(&out, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2/0/0 of 2", "4/4", "seed=5: 4 experiment(s) quarantined"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-status output misses %q:\n%s", want, out.String())
		}
	}
}

// TestStatusReportsEveryJournal renders -status over a directory holding
// a journal written while campaigns pruned statically dead flips (the
// fixture of internal/core's TestStaticPrunedJournalLoads), a garbage
// campaign file and a zero-length one: the campaign is listed, and each
// other file is named with its reason. A missing directory is an error.
func TestStatusReportsEveryJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "spruned-campaign.mfj"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"campaign-3d7ca68d82d8877b.mfj": data,
		"campaign-0000000000000bad.mfj": []byte("garbage\n"),
		"campaign-0000000000000new.mfj": nil,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := runStatus(&out, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"register tech=inject-on-write mbf=1 win=0", "2/0/0 of 2", "40/40",
		"not listed: core: journal " + filepath.Join(dir, "campaign-0000000000000bad.mfj") + " holds no campaign meta record",
		"not listed: core: journal " + filepath.Join(dir, "campaign-0000000000000new.mfj") + ": no records yet",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-status output misses %q:\n%s", want, out.String())
		}
	}
	missing := filepath.Join(dir, "no-such-dir")
	if err := runStatus(&out, missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("-status on a missing directory: got %v, want an error naming it", err)
	}
}

// TestProfileFlags runs a 50-experiment campaign with -cpuprofile and
// -memprofile and checks that both profiles are written.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.n = 50
	o.cpuProfile = filepath.Join(dir, "cpu.prof")
	o.memProfile = filepath.Join(dir, "mem.prof")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{o.cpuProfile, o.memProfile} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}
