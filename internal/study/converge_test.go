package study_test

import (
	"strings"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/study"
	"multiflip/internal/vm"
)

// TestEarlyExitTable checks the early-termination report: one row per
// program, four data columns, and — on the tiny grid — a non-zero
// convergence tally somewhere (the single-bit campaigns are dense in
// overwritten-before-read faults).
func TestEarlyExitTable(t *testing.T) {
	s := tiny(t)
	tb := s.EarlyExit()
	if len(tb.Rows) != len(s.Programs) {
		t.Fatalf("early-exit table has %d rows, want %d", len(tb.Rows), len(s.Programs))
	}
	for _, row := range tb.Rows {
		if len(row) != 5 {
			t.Fatalf("early-exit row has %d cells, want 5: %v", len(row), row)
		}
	}
	total := 0
	for _, name := range s.Programs {
		d := s.Data[name]
		for _, tech := range core.Techniques() {
			total += d.Single[tech].Converged
			for _, r := range d.Multi[tech] {
				total += r.Converged
			}
		}
	}
	if total == 0 && !vm.EnvDisabled().Has(vm.TierConverge) {
		t.Error("no campaign in the tiny study converged any experiment")
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Early termination") {
		t.Error("rendered table misses its title")
	}
}

// TestNoStuckAt checks the stuck-at extension opt-out: no campaigns run
// and neither the stuck-at table nor the EXT answers row is rendered.
func TestNoStuckAt(t *testing.T) {
	opts := tinyOpts()
	opts.Programs = []string{"CRC32"}
	opts.MaxMBFs = []int{2}
	opts.WinSizes = []core.WinSize{core.Win(0), core.Win(1)}
	opts.NoStuckAt = true
	s, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Data["CRC32"].StuckAt != nil {
		t.Error("NoStuckAt study ran a stuck-at campaign")
	}
	var b strings.Builder
	if err := s.RenderAll(&b, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "stuck-at register faults") {
		t.Error("NoStuckAt study rendered the stuck-at table")
	}
	if strings.Contains(b.String(), "EXT") {
		t.Error("NoStuckAt study rendered the EXT answers row")
	}
}

// TestStudyDisableConvergeDifferential runs a reduced study with the
// convergence tier disabled and checks the rendered outcome figures are
// byte-identical to the default study's — the study-level version of the
// campaign differential.
func TestStudyDisableConvergeDifferential(t *testing.T) {
	opts := tinyOpts()
	opts.Programs = []string{"CRC32"}
	opts.MaxMBFs = []int{2}
	opts.WinSizes = []core.WinSize{core.Win(0), core.Win(1)}
	on, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Disable = vm.TierConverge
	off, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range core.Techniques() {
		if got, want := on.Figure1(tech).String(), off.Figure1(tech).String(); got != want {
			t.Errorf("%s: Figure 1 differs between converge and no-converge studies:\n%s\nvs\n%s",
				tech, got, want)
		}
		if got, want := on.Figure2(tech).String(), off.Figure2(tech).String(); got != want {
			t.Errorf("%s: Figure 2 differs between converge and no-converge studies", tech)
		}
	}
	for _, name := range off.Programs {
		d := off.Data[name]
		for _, tech := range core.Techniques() {
			if d.Single[tech].Converged != 0 {
				t.Errorf("%s %s: converge-disabled study reported early exits", name, tech)
			}
		}
	}
}

// TestDisableReachesTargets checks that Options.Disable means what the
// cmd/fi -disable flag means: every target the study prepares carries
// the set, so every campaign on it — including the memfault sweep the
// study command runs on those targets — runs without those tiers, and
// disabling snapshots keeps the golden trace, so convergence stays on.
func TestDisableReachesTargets(t *testing.T) {
	opts := tinyOpts()
	opts.Programs = []string{"CRC32"}
	opts.MaxMBFs = []int{2}
	opts.WinSizes = []core.WinSize{core.Win(0)}
	opts.NoStuckAt = true
	for _, disable := range []vm.Tiers{vm.TierSnapshots, vm.TierCompile} {
		opts.Disable = disable
		s, err := study.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		tg := s.Data["CRC32"].Target
		if want := disable | vm.EnvDisabled(); tg.Disable != want {
			t.Errorf("-disable %s: study target disables %q, want %q", disable, tg.Disable, want)
		}
		if disable == vm.TierSnapshots {
			if len(tg.Snapshots) != 0 {
				t.Errorf("-disable snapshots: study target kept %d snapshots", len(tg.Snapshots))
			}
			if tg.Trace == nil && !vm.EnvDisabled().Has(vm.TierConverge) {
				t.Error("-disable snapshots: study target lost its golden trace")
			}
		}
	}
}
