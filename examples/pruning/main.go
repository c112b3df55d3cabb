// pruning: the paper's third error-space pruning layer (§IV-C3, RQ5).
//
// A recorded single bit-flip campaign tells us which injection locations
// already end in Detection or SDC. Re-running multi-bit experiments whose
// first error is pinned to those exact locations shows that Detection
// locations almost never turn into SDCs (Transition I), while Benign
// locations often do (Transition II) — so multi-bit campaigns only need
// to start from Benign locations.
package main

import (
	"fmt"
	"log"

	"multiflip/internal/analysis"
	"multiflip/internal/core"
	"multiflip/internal/prog"
)

const (
	programName = "stringsearch"
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
		// 1. Recorded single-bit campaign: the per-location outcomes.
		single, err := (&core.Engine{
			Target: target,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: tech,
				Config:    core.SingleBit(),
			}},
			N:      experiments,
			Seed:   11,
			Record: true,
		}).Run()
		if err != nil {
			return err
		}

		// 2. Pinned multi-bit rerun: first error at the same locations,
		// using a worst-case multi-bit configuration (3 errors, window 1).
		pins := make([]core.Pin, len(single.Experiments))
		for i, e := range single.Experiments {
			pins[i] = core.Pin{Cand: e.Cand, Bit: e.Bit}
		}
		multi, err := (&core.Engine{
			Target: target,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: tech,
				Config:    core.Config{MaxMBF: 3, Win: core.Win(1)},
				Pins:      pins,
			}},
			N:      len(pins),
			Seed:   12,
			Record: true,
		}).Run()
		if err != nil {
			return err
		}

		// 3. Transition analysis (Fig 6 / Table IV).
		matrix, err := analysis.Transitions(single.Experiments, multi.Experiments)
		if err != nil {
			return err
		}
		fmt.Printf("== %s on %s (n=%d) ==\n", tech, programName, experiments)
		fmt.Printf("Transition I  (Detection -> SDC): %5.1f%%\n", matrix.TransitionI())
		fmt.Printf("Transition II (Benign    -> SDC): %5.1f%%\n", matrix.TransitionII())
		prunable := analysis.PrunableShare(single.Experiments)
		fmt.Printf("prunable first-error locations:  %5.1f%%\n", prunable)
		fmt.Printf("-> start multi-bit experiments only at the %.1f%% Benign locations;\n"+
			"   Detection locations rarely become SDCs under more flips.\n\n", 100-prunable)
	}
	return nil
}
