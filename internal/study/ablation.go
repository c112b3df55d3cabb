package study

import (
	"fmt"
	"strconv"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/report"
	"multiflip/internal/stats"
)

// The paper fixes two environment properties we had to choose in the
// simulator: the hang watchdog budget (LLFI: 1-2 orders of magnitude over
// fault-free time) and whether unaligned accesses trap. The ablations
// quantify how sensitive the headline metric (single-bit SDC%) is to those
// choices. They take no study Options: their campaigns run with the
// Engine's defaults (GOMAXPROCS workers, the exact classifier,
// core.FailFast, no journal) on targets with every tier on.

// HangFactorAblation runs single-bit campaigns on one program under
// several hang budgets and reports the outcome mix per factor.
func HangFactorAblation(name string, tech core.Technique, n int, seed uint64, factors []uint64) (*report.Table, error) {
	target, err := buildTarget(name)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: hang-budget factor sensitivity (%s, %s, single-bit)", name, tech),
		Columns: []string{"hang factor", "Benign%", "Detection%", "Hang%", "SDC%"},
	}
	for _, factor := range factors {
		res, err := (&core.Engine{
			Target:     target,
			Model:      singleBit(tech),
			N:          n,
			Seed:       seed,
			HangFactor: factor,
		}).Run()
		if err != nil {
			return nil, err
		}
		t.AddRow(strconv.FormatUint(factor, 10),
			stats.FormatPct(res.Pct(core.OutcomeBenign)),
			stats.FormatPct(res.DetectionPct()),
			stats.FormatPct(res.Pct(core.OutcomeHang)),
			stats.FormatPct(res.SDCPct()))
	}
	t.Notes = append(t.Notes,
		"The same seed is used for every factor, so rows differ only in how long potential hangs may run.")
	return t, nil
}

// AlignmentAblation compares single-bit campaigns with and without the
// misaligned-access trap on one program.
func AlignmentAblation(name string, tech core.Technique, n int, seed uint64) (*report.Table, error) {
	target, err := buildTarget(name)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: misaligned-access trap (%s, %s, single-bit)", name, tech),
		Columns: []string{"alignment trap", "Benign%", "Detection%", "SDC%"},
	}
	for _, disable := range []bool{false, true} {
		res, err := (&core.Engine{
			Target:      target,
			Model:       singleBit(tech),
			N:           n,
			Seed:        seed,
			NoAlignTrap: disable,
		}).Run()
		if err != nil {
			return nil, err
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.AddRow(label,
			stats.FormatPct(res.Pct(core.OutcomeBenign)),
			stats.FormatPct(res.DetectionPct()),
			stats.FormatPct(res.SDCPct()))
	}
	t.Notes = append(t.Notes,
		"With the trap off, corrupted low address bits silently read/write skewed data instead of raising an exception, shifting Detection toward SDC/Benign.")
	return t, nil
}

// singleBit returns the single bit-flip model under a technique.
func singleBit(tech core.Technique) *core.RegisterModel {
	return &core.RegisterModel{Spec: &core.CampaignSpec{Technique: tech, Config: core.SingleBit()}}
}

// buildTarget builds and profiles a benchmark by name.
func buildTarget(name string) (*core.Target, error) {
	b, err := prog.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return core.NewTarget(name, p)
}
