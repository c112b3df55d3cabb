package core_test

import (
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/prog"
)

// TestAllProgramsSurviveInjection is the suite-wide integration check:
// every Table II program accepts single- and multi-bit campaigns with
// both techniques, and every experiment lands in a defined category.
func TestAllProgramsSurviveInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	configs := []core.Config{
		core.SingleBit(),
		{MaxMBF: 3, Win: core.Win(0)},
		{MaxMBF: 3, Win: core.Win(1)},
		{MaxMBF: 30, Win: core.WinRange(11, 100)},
	}
	for _, b := range prog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			tg := target(t, b.Name)
			for _, tech := range core.Techniques() {
				for _, cfg := range configs {
					res, err := (&core.Engine{
						Target: tg,
						Model: &core.RegisterModel{Spec: &core.CampaignSpec{
							Technique: tech,
							Config:    cfg,
						}},
						N:    40,
						Seed: 3,
					}).Run()
					if err != nil {
						t.Fatalf("%s %s: %v", tech, cfg, err)
					}
					if res.N() != 40 {
						t.Fatalf("%s %s: %d classified outcomes, want 40", tech, cfg, res.N())
					}
					if res.ActivatedTotal < 40 {
						t.Fatalf("%s %s: some experiments activated no error", tech, cfg)
					}
				}
			}
		})
	}
}

// TestSingleBitOutcomesVaryAcrossSuite: across the 15 programs, single-bit
// injection must produce a spread of SDC rates (the paper's Fig 1 is not
// flat); a constant rate would indicate the injector ignores program
// structure.
func TestSingleBitOutcomesVaryAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	minSDC, maxSDC := 101.0, -1.0
	for _, b := range prog.All() {
		tg := target(t, b.Name)
		res, err := (&core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite,
				Config:    core.SingleBit(),
			}},
			N:    150,
			Seed: 17,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		sdc := res.SDCPct()
		if sdc < minSDC {
			minSDC = sdc
		}
		if sdc > maxSDC {
			maxSDC = sdc
		}
	}
	if maxSDC-minSDC < 10 {
		t.Fatalf("SDC spread across suite = %.1f..%.1f pp; suspiciously flat", minSDC, maxSDC)
	}
}
