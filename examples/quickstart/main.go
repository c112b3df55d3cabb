// Quickstart: run a single bit-flip fault-injection campaign against one
// of the bundled benchmark programs with both techniques and print the
// outcome distribution — the minimal end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Pick a workload from the Table II suite and build it.
	bench, err := prog.ByName("CRC32")
	if err != nil {
		return err
	}
	program, err := bench.Build()
	if err != nil {
		return err
	}

	// 2. Profile it fault-free: golden output + candidate spaces.
	target, err := core.NewTarget(bench.Name, program)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d dynamic instructions, %d read / %d write candidates\n\n",
		target.Name, target.GoldenDyn, target.ReadCands, target.WriteCands)

	// 3. Run one campaign per technique with the single bit-flip model.
	for _, tech := range core.Techniques() {
		res, err := (&core.Engine{
			Target: target,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: tech,
				Config:    core.SingleBit(),
			}},
			N:    2000,
			Seed: 42,
		}).Run()
		if err != nil {
			return err
		}
		fmt.Printf("%s (n=%d):\n", tech, res.N())
		for _, o := range core.Outcomes() {
			fmt.Printf("  %-12s %6.2f%% ± %.2f\n", o, res.Pct(o),
				stats.NormalCI95(res.Count(o), res.N()))
		}
		fmt.Printf("  error resilience: %.3f\n\n", res.Resilience())
	}
	return nil
}
