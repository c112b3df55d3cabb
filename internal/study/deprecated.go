package study

import (
	"fmt"

	"multiflip/internal/core"
	"multiflip/internal/report"
	"multiflip/internal/stats"
)

// LivenessPredictionTable returns the table the retired static liveness
// tier rendered when it predicted nothing: the same title, columns and
// notes, and one all-zero row per program and technique. It builds no
// target and runs no campaign.
//
// Deprecated: campaigns prune nothing statically; every experiment
// executes.
func LivenessPredictionTable(names []string, n int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Static liveness pruning: predicted vs executed outcomes (single-bit, n=%d)", n),
		Columns: []string{
			"program", "technique", "predicted", "predicted%", "executed Benign of predicted", "mismatches",
		},
	}
	for _, name := range names {
		for _, tech := range core.Techniques() {
			t.AddRow(name, tech.String(), "0", stats.FormatPct(0), "0", "0")
		}
	}
	t.Notes = append(t.Notes,
		"Predicted experiments are those the liveness oracle proves Benign from the dead-bit mask alone; the executed column runs them on the VM (-disable liveness) and must agree exactly.",
		"With MULTIFLIP_DISABLE=liveness the oracle is never built and every row predicts 0.")
	return t, nil
}
