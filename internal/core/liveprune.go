package core

import (
	"math/bits"
	"sort"

	"multiflip/internal/ir"
	"multiflip/internal/liveness"
)

// The static pruning tier: a bit-level liveness analysis
// (internal/liveness) proves some (pc, register, bit) flips unobservable,
// and the target records — during the golden profiling run it performs
// anyway — which candidate indices land on such locations. A register
// campaign consults that oracle before touching the VM: an experiment
// whose entire sampled flip mask is statically dead is recorded as Benign
// with zero execution, counted in EngineResult.StaticPruned.
//
// Pruning must be invisible in every recorded field. The oracle therefore
// carries, per candidate, the golden register value at the injection
// point (for the flip-direction breakdown) and the slot's role and
// sampling width; PredictStatic replicates the VM's mask sampling on a
// copy of the experiment's random stream, so a pruned experiment reports
// the same Cand/Bit/Dir/Role/Activated an executed run would, and an
// unpruned experiment's stream is untouched. The soundness differential
// suite re-executes every prunable experiment on a target prepared
// without vm.TierLiveness and asserts the aggregates match exactly,
// modulo the counter itself.

// maxOracleEntries bounds the per-target oracle. A target whose golden
// run yields more dead candidates than this drops the oracle entirely
// (deterministically — the profiling run is deterministic), trading the
// pruning win for bounded memory; campaigns remain correct either way.
const maxOracleEntries = 1 << 20

// liveCand is one prunable candidate: the statically dead bits within
// its sampling width, the golden register value at the injection point,
// and the metadata an executed run would have reported.
type liveCand struct {
	dead   uint64
	golden uint64
	wbits  uint8
	role   ir.SlotRole
}

// liveOracle maps candidate indices with a non-empty dead-bit mask to
// their liveCand entries, per technique. Candidate slices are sorted
// (the profiling run visits candidates in order).
type liveOracle struct {
	readCands  []uint64
	readInfo   []liveCand
	writeCands []uint64
	writeInfo  []liveCand
}

// lookup returns the entry for cand in the technique's candidate space.
func (o *liveOracle) lookup(onWrite bool, cand uint64) (liveCand, bool) {
	cands, info := o.readCands, o.readInfo
	if onWrite {
		cands, info = o.writeCands, o.writeInfo
	}
	i := sort.Search(len(cands), func(i int) bool { return cands[i] >= cand })
	if i >= len(cands) || cands[i] != cand {
		return liveCand{}, false
	}
	return info[i], true
}

// oracleBuilder accumulates the oracle from the VM's candidate-
// enumeration hook during the golden profiling run.
type oracleBuilder struct {
	prog     *ir.Program
	an       *liveness.Analysis
	o        liveOracle
	overflow bool
}

func newOracleBuilder(p *ir.Program) *oracleBuilder {
	return &oracleBuilder{prog: p, an: liveness.Analyze(p)}
}

// onCand implements vm.Options.OnCand (see its slot conventions).
func (b *oracleBuilder) onCand(onWrite bool, cand uint64, fn, pc, slot int, val uint64) {
	if b.overflow {
		return
	}
	var dead uint64
	var wbits int
	var role ir.SlotRole
	code := b.prog.Funcs[fn].Code
	switch {
	case slot >= 0:
		dead = b.an.DeadReadBits(fn, pc, slot)
		if dead == 0 {
			return
		}
		in := &code[pc]
		wbits = ir.SlotWidth(in, slot).Bits()
		role = ir.ReadSlotRole(in, slot)
	case slot == -1:
		dead = b.an.DeadWriteBits(fn, pc)
		if dead == 0 {
			return
		}
		in := &code[pc]
		wbits = ir.DestWidth(in).Bits()
		role = ir.DestRole(in)
	default:
		// Call-result write at the matching return: pc is the caller's
		// resume point, the call instruction sits at pc-1, and the VM
		// samples the flip at full width with ir.RoleOther.
		dead = b.an.DeadWriteBits(fn, pc-1)
		if dead == 0 {
			return
		}
		wbits = 64
		role = ir.RoleOther
	}
	if len(b.o.readCands)+len(b.o.writeCands) >= maxOracleEntries {
		b.overflow = true
		return
	}
	e := liveCand{dead: dead, golden: val, wbits: uint8(wbits), role: role}
	if onWrite {
		b.o.writeCands = append(b.o.writeCands, cand)
		b.o.writeInfo = append(b.o.writeInfo, e)
	} else {
		b.o.readCands = append(b.o.readCands, cand)
		b.o.readInfo = append(b.o.readInfo, e)
	}
}

// finish returns the built oracle, or nil when it overflowed (or is
// empty: a nil oracle and an empty one prune identically — nothing).
func (b *oracleBuilder) finish() *liveOracle {
	if b.overflow {
		return nil
	}
	return &b.o
}

// StaticPredictor is the engine's optional pre-execution classification
// seam: a fault model that can prove some planned experiments Benign
// without running them implements it, and Engine.runOne consults it
// right after planning (a target prepared without vm.TierLiveness has no
// oracle, so every prediction declines). The returned Experiment must
// be field-for-field identical to what executing the plan would record —
// the prediction replaces the run, it must not change its story. inj
// is valid only during the call, and so is the generator its plan
// draws from: the engine reuses both for the worker's next experiment.
type StaticPredictor interface {
	PredictStatic(t *Target, inj *Injection) (Experiment, bool)
}

// PredictStatic implements StaticPredictor for the register model: a
// same-register plan (single-bit, or multi-bit with win-size 0) whose
// whole sampled mask lands on statically dead bits of its target
// register is Benign without execution.
//
// The mask is sampled from a copy of the plan's random stream, exactly
// as vm.applyFirst would sample it; the plan's own stream is never
// advanced, so declining to prune leaves the VM's draws — and thus the
// recorded outcome — bit-identical to a run that never consulted the
// oracle. Multi-register windows and stuck-at holds never prune: their
// follow-up behaviour depends on dynamic state.
func (m *RegisterModel) PredictStatic(t *Target, inj *Injection) (Experiment, bool) {
	p := inj.Plan
	if t.oracle == nil || p == nil || p.Stuck || !p.SameReg || p.Rng == nil || len(inj.MemFlips) != 0 {
		return Experiment{}, false
	}
	c, ok := t.oracle.lookup(p.OnWrite, p.FirstCand)
	if !ok {
		return Experiment{}, false
	}
	wbits := int(c.wbits)
	rng := *p.Rng // value copy: replicate the draws without consuming them
	var mask uint64
	if p.PinnedBit >= 0 {
		mask = 1 << uint(p.PinnedBit%wbits)
		for bits.OnesCount64(mask) < p.MaxFlips && bits.OnesCount64(mask) < wbits {
			mask |= rng.DistinctBits(1, wbits)
		}
	} else {
		mask = rng.DistinctBits(p.MaxFlips, wbits)
	}
	if mask&^c.dead != 0 {
		return Experiment{}, false // some sampled bit may be observed
	}
	exp := Experiment{
		Cand:      inj.Cand,
		Bit:       -1,
		Dir:       DirUnknown,
		Role:      c.role,
		Outcome:   OutcomeBenign,
		Activated: bits.OnesCount64(mask),
	}
	if exp.Activated == 1 {
		exp.Bit = bits.TrailingZeros64(mask)
		exp.Dir = DirFromPre(int(c.golden >> uint(exp.Bit) & 1))
	}
	return exp, true
}
