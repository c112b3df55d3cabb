package study

import (
	"fmt"
	"reflect"
	"strconv"

	"multiflip/internal/core"
	"multiflip/internal/report"
	"multiflip/internal/stats"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// LivenessPredictionTable confronts the static liveness tier with ground
// truth: for each program and technique it replays the single-bit
// campaign's per-experiment planning, asks the tier which experiments it
// would classify without executing, then runs the same campaign on a
// target prepared without the tier so every one of those experiments
// actually executes.
// A predicted record that differs from the executed record in any field
// counts as a mismatch; soundness means the last column is always 0.
func LivenessPredictionTable(names []string, n int, seed uint64) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Static liveness pruning: predicted vs executed outcomes (single-bit, n=%d)", n),
		Columns: []string{
			"program", "technique", "predicted", "predicted%", "executed Benign of predicted", "mismatches",
		},
	}
	for _, name := range names {
		target, err := buildTarget(name, 0)
		if err != nil {
			return nil, err
		}
		// Force execution: the measured outcomes come from a target
		// without the liveness oracle.
		executed, err := buildTarget(name, vm.TierLiveness)
		if err != nil {
			return nil, err
		}
		for _, tech := range core.Techniques() {
			model := singleBit(tech)
			measured, err := (&core.Engine{Target: executed, Model: model, N: n, Seed: seed, Record: true}).Run()
			if err != nil {
				return nil, err
			}
			var sp core.StaticPredictor = model
			predicted, benign, mismatches := 0, 0, 0
			for idx := uint64(0); idx < uint64(n); idx++ {
				// Replay the engine's per-experiment derivation exactly:
				// private stream from (Seed, idx), then the model's plan.
				rng := xrand.ForExperiment(seed, idx)
				inj := model.Plan(target, idx, rng)
				exp, ok := sp.PredictStatic(target, &inj)
				if !ok {
					continue
				}
				predicted++
				got := measured.Experiments[idx]
				if got.Outcome == core.OutcomeBenign {
					benign++
				}
				if !reflect.DeepEqual(exp, got) {
					mismatches++
				}
			}
			t.AddRow(name, tech.String(),
				strconv.Itoa(predicted),
				stats.FormatPct(100*float64(predicted)/float64(n)),
				strconv.Itoa(benign),
				strconv.Itoa(mismatches))
		}
	}
	t.Notes = append(t.Notes,
		"Predicted experiments are those the liveness oracle proves Benign from the dead-bit mask alone; the executed column runs them on the VM (-disable liveness) and must agree exactly.",
		"With MULTIFLIP_DISABLE=liveness the oracle is never built and every row predicts 0.")
	return t, nil
}
