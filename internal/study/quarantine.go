package study

// The quarantine report: when a study runs with core.Quarantine and any
// experiment failed every supervision tier, the poisoned experiments get
// their own table — program, campaign, experiment index, campaign seed
// and the failure itself — so a long study that survived an engine bug
// ends with an actionable repro list instead of a silent gap. A healthy
// study (or one run under FailFast) produces no quarantine rows and the
// table is omitted entirely, keeping study output byte-identical to
// builds that predate the supervision layer.

import (
	"fmt"
	"strconv"
	"strings"

	"multiflip/internal/core"
	"multiflip/internal/report"
)

// quarRow ties one quarantine record to the campaign that produced it.
type quarRow struct {
	prog     string
	campaign string
	rec      core.QuarantineRecord
}

// quarantined collects every quarantine record of the study, in program
// / campaign / experiment order.
func (s *Study) quarantined() []quarRow {
	var rows []quarRow
	add := func(prog, campaign string, recs []core.QuarantineRecord) {
		for _, rec := range recs {
			rows = append(rows, quarRow{prog: prog, campaign: campaign, rec: rec})
		}
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		for _, tech := range core.Techniques() {
			if r := d.Single[tech]; r != nil {
				add(name, fmt.Sprintf("%s single-bit", tech), r.Quarantined)
			}
			for _, r := range d.Multi[tech] {
				add(name, fmt.Sprintf("%s %s", tech, r.Spec.Config), r.Quarantined)
			}
		}
		if d.StuckAt != nil {
			add(name, fmt.Sprintf("stuck-at win=%s", s.Opts.StuckAtWindow), d.StuckAt.Quarantined)
		}
	}
	return rows
}

// QuarantineTable renders the study's poisoned experiments. Callers
// should omit the table when quarantined() is empty (Tables does).
func (s *Study) QuarantineTable(rows []quarRow) *report.Table {
	t := &report.Table{
		Title:   "Quarantined experiments: failed every supervision tier",
		Columns: []string{"program", "campaign", "exp", "seed", "tiers", "failure"},
	}
	for _, row := range rows {
		failure := ""
		if n := len(row.rec.Errs); n > 0 {
			failure = clip(row.rec.Errs[n-1], 80)
		}
		if row.rec.Panic != "" {
			failure = clip(fmt.Sprintf("panic: %s [stack %s]", row.rec.Panic, row.rec.Stack), 80)
		}
		t.AddRow(row.prog, row.campaign,
			strconv.Itoa(row.rec.Index),
			strconv.FormatUint(row.rec.Seed, 10),
			strings.Join(row.rec.Tiers, "->"),
			failure)
	}
	t.Notes = append(t.Notes,
		"Each row is one experiment that failed or panicked at every supervision tier and was poisoned under the Quarantine policy; (seed, exp) pins its full random stream for replay.",
		"Quarantined experiments are tallied as Internal: they say nothing about the workload's resilience, so percentage statistics in campaigns carrying them are lower bounds.")
	return t
}

// clip bounds a table cell, marking the cut.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
