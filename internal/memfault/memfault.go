// Package memfault implements the paper's stated future work (§V):
// multiple-bit faults in MEMORY rather than in registers.
//
// ECC memory corrects single-bit errors and detects double-bit errors per
// word, but three or more flipped bits in the same word can escape ECC
// entirely (§II-A). A memfault experiment therefore flips k distinct bits
// of one 64-bit word of the program's global data at a uniformly sampled
// dynamic instant and classifies the outcome with the same §III-E
// categories as the register campaigns.
//
// Unlike register faults, memory faults are not filtered for liveness: a
// corrupted word may never be read again, so low activation — a high
// Benign share — is part of the phenomenon being measured.
//
// The campaign itself — workers, batched claiming, sharded aggregation
// and convergence — is the shared experiment engine in internal/core;
// this package contributes only the Model.
package memfault

import (
	"fmt"

	"multiflip/internal/core"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// Model is the memory-word fault class expressed as an engine
// FaultModel: k distinct bits of one uniformly drawn 64-bit global word
// flipped at a uniformly sampled dynamic instant. A memory-fault
// campaign is a core.Engine with this model; its experiment records'
// Cand is the corruption instant.
type Model struct {
	// Bits is the number of distinct bits flipped in one 64-bit word.
	// 1 and 2 model faults ECC would catch (baseline); >= 3 model the
	// ECC-escaping faults the paper's future work targets.
	Bits int
}

// Prefix implements core.FaultModel.
func (m *Model) Prefix() string { return "memfault" }

// Describe implements core.FaultModel.
func (m *Model) Describe() string { return fmt.Sprintf("memfault bits=%d", m.Bits) }

// Validate implements core.FaultModel.
func (m *Model) Validate(t *core.Target, n int) error {
	if m.Bits < 1 || m.Bits > 64 {
		return fmt.Errorf("memfault: bits must be in [1,64], got %d", m.Bits)
	}
	if len(t.Prog.Globals) < 8 {
		return fmt.Errorf("memfault: target %s has no global words", t.Name)
	}
	return nil
}

// Plan implements core.FaultModel: the corruption instant, the word and
// the bit mask all come from the experiment's private stream, and the
// experiment fast-forwards from the latest golden-run snapshot at or
// before the instant (the corruption is scheduled by dynamic instant
// rather than by candidate index). Experiment.Cand records the instant.
func (m *Model) Plan(t *core.Target, idx uint64, rng *xrand.Rand) core.Injection {
	words := uint64(len(t.Prog.Globals)) / 8
	flip := vm.MemFlip{
		AtDyn: rng.Uint64n(t.GoldenDyn),
		Word:  rng.Uint64n(words) * 8,
		Mask:  rng.DistinctBits(m.Bits, 64),
	}
	return core.Injection{
		Cand:     flip.AtDyn,
		MemFlips: []vm.MemFlip{flip},
		Resume:   t.SnapshotBeforeDyn(flip.AtDyn),
	}
}

// Record implements core.FaultModel. The uniform first-flip metadata
// is surfaced by the VM for memory flips too: a single-bit mask (Bits
// = 1) reports its bit position and direction like a register flip.
func (m *Model) Record(exp *core.Experiment, res *vm.Result) {
	core.RecordFlipMeta(exp, res)
}
