// sdccompare: the paper's core question in miniature — does the multiple
// bit-flip model produce more silent data corruptions than the single
// bit-flip model? This example sweeps max-MBF over one program for both
// techniques (win-size = 0 and a small multi-register window) and reports
// where the pessimistic SDC estimate comes from.
package main

import (
	"fmt"
	"log"

	"multiflip/internal/core"
	"multiflip/internal/prog"
)

const (
	programName = "basicmath" // a paper outlier: low detection, high SDC
	experiments = 1500
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	bench, err := prog.ByName(programName)
	if err != nil {
		return err
	}
	program, err := bench.Build()
	if err != nil {
		return err
	}
	target, err := core.NewTarget(bench.Name, program)
	if err != nil {
		return err
	}

	for _, tech := range core.Techniques() {
		fmt.Printf("== %s on %s ==\n", tech, programName)
		single, err := campaign(target, tech, core.SingleBit())
		if err != nil {
			return err
		}
		fmt.Printf("single bit-flip SDC: %5.1f%%\n", single.SDCPct())

		bestSDC, bestCfg := single.SDCPct(), core.SingleBit()
		for _, win := range []core.WinSize{core.Win(0), core.Win(1), core.Win(100)} {
			fmt.Printf("win=%-4s:", win)
			for _, mbf := range []int{2, 3, 5, 10, 30} {
				cfg := core.Config{MaxMBF: mbf, Win: win}
				res, err := campaign(target, tech, cfg)
				if err != nil {
					return err
				}
				fmt.Printf("  mbf=%-2d %5.1f%%", mbf, res.SDCPct())
				if res.SDCPct() > bestSDC {
					bestSDC, bestCfg = res.SDCPct(), cfg
				}
			}
			fmt.Println()
		}
		if bestCfg.IsSingle() {
			fmt.Printf("-> the single bit-flip model is already pessimistic (RQ2)\n\n")
		} else {
			fmt.Printf("-> pessimistic SDC%% needs %s (+%.1f pp over single-bit)\n\n",
				bestCfg, bestSDC-single.SDCPct())
		}
	}
	return nil
}

func campaign(target *core.Target, tech core.Technique, cfg core.Config) (*core.EngineResult, error) {
	return (&core.Engine{
		Target: target,
		Model:  &core.RegisterModel{Spec: &core.CampaignSpec{Technique: tech, Config: cfg}},
		N:      experiments,
		Seed:   7,
	}).Run()
}
