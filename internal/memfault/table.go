package memfault

import (
	"fmt"

	"multiflip/internal/core"
	"multiflip/internal/report"
	"multiflip/internal/stats"
)

// SweepTable runs memory-fault campaigns over a list of per-word flip
// counts and renders the outcome mix per count — the extension study's
// equivalent of Fig 2 for memory words. The campaigns run with the
// Engine's defaults: GOMAXPROCS workers, the exact classifier,
// core.FailFast and no journal.
func SweepTable(target *core.Target, bitsList []int, n int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Extension: multi-bit faults in memory words (%s, n=%d per row)",
			target.Name, n),
		Columns: []string{"bits/word", "ECC outcome", "Benign%", "Detection%", "SDC%"},
	}
	for _, bits := range bitsList {
		res, err := (&core.Engine{Target: target, Model: &Model{Bits: bits}, N: n, Seed: seed}).Run()
		if err != nil {
			return nil, err
		}
		ecc := "escapes ECC"
		switch bits {
		case 1:
			ecc = "corrected"
		case 2:
			ecc = "detected"
		}
		t.AddRow(fmt.Sprintf("%d", bits), ecc,
			stats.FormatPct(res.Pct(core.OutcomeBenign)),
			stats.FormatPct(res.DetectionPct()),
			stats.FormatPct(res.SDCPct()))
	}
	t.Notes = append(t.Notes,
		"Rows with 1-2 bits/word are the baseline ECC would handle; rows with >= 3 bits model the undetected faults of the paper's future work (§V).",
		"Memory faults are not liveness-filtered, so a high Benign share (never-read words) is expected.")
	return t, nil
}
