package vm

import (
	"errors"

	"multiflip/internal/ir"
	"multiflip/internal/xrand"
)

// Plan describes the bit flips one experiment performs. It is mechanism
// only; internal/core samples the fields from the campaign's fault model.
//
// The candidate space is defined by the technique:
//
//   - inject-on-read (OnWrite=false): every dynamic register-read operand
//     slot, in execution order;
//   - inject-on-write (OnWrite=true): every dynamic instruction that writes
//     a destination register (calls count at their matching return, when
//     the destination is actually written).
//
// The first flip lands on candidate index FirstCand. With SameReg (the
// paper's win-size = 0), all MaxFlips flips are distinct bits of that one
// register, clamped to its width. Otherwise follow-up flips land on the
// first eligible candidate at a dynamic-instruction distance of at least
// NextWindow(rng) from the previous flip, one random bit each.
type Plan struct {
	// OnWrite selects the technique: false = inject-on-read, true =
	// inject-on-write.
	OnWrite bool
	// FirstCand is the candidate index of the first injection.
	FirstCand uint64
	// MaxFlips is the paper's max-MBF: the maximum number of bit-flip
	// errors in this run. Must be >= 1.
	MaxFlips int
	// SameReg corresponds to win-size = 0: all flips target the first
	// candidate's register as distinct bits.
	SameReg bool
	// NextWindow samples the dynamic-instruction distance to the next
	// injection. Required when !SameReg and MaxFlips > 1; must return a
	// value >= 1.
	NextWindow func(*xrand.Rand) uint64
	// Rng drives slot, bit and window sampling. Required.
	Rng *xrand.Rand
	// PinnedBit pins the bit index of the FIRST flip (reduced modulo the
	// target register width); use -1 to sample uniformly. Pinning supports
	// the paper's §IV-C3 reruns, which start multi-bit experiments at the
	// exact locations of earlier single-bit experiments.
	PinnedBit int
	// Stuck selects the stuck-at model instead of transient flips: the
	// first candidate's register has one bit held at a constant value
	// (StuckHigh) across every read of that register that can observe it
	// (the reading slot's width covers the bit — the transient model's
	// flip-within-slot-width rule), for HoldWindow dynamic instructions
	// starting at the first candidate's instruction. The hold ends early
	// when the activation frame returns — the register file is
	// per-frame, so the faulty register has no identity beyond it. Only
	// inject-on-read is meaningful (OnWrite must be false); MaxFlips,
	// SameReg and NextWindow are ignored. Each observing read whose
	// value the hold actually changes counts as one activated error, so
	// Result.Injected can be zero (the bit already carried the held
	// value, or the register was never read again in the window).
	Stuck bool
	// StuckHigh selects the held value: true = stuck-at-1, false =
	// stuck-at-0.
	StuckHigh bool
	// HoldWindow is the dynamic length of the hold in instructions; must
	// be >= 1 when Stuck is set.
	HoldWindow uint64
}

var (
	errPlanRng         = errors.New("vm: plan requires an Rng")
	errPlanFlips       = errors.New("vm: plan requires MaxFlips >= 1")
	errPlanWindow      = errors.New("vm: multi-register plan requires NextWindow")
	errPlanStuckWrite  = errors.New("vm: stuck-at plan requires the inject-on-read technique")
	errPlanStuckWindow = errors.New("vm: stuck-at plan requires HoldWindow >= 1")
)

func (p *Plan) validate() error {
	if p.Rng == nil {
		return errPlanRng
	}
	if p.Stuck {
		if p.OnWrite {
			return errPlanStuckWrite
		}
		if p.HoldWindow < 1 {
			return errPlanStuckWindow
		}
		return nil
	}
	if p.MaxFlips < 1 {
		return errPlanFlips
	}
	if !p.SameReg && p.MaxFlips > 1 && p.NextWindow == nil {
		return errPlanWindow
	}
	return nil
}

// noInj is the injection horizon of a run with no plan armed.
const noInj = ^uint64(0)

// injHorizon returns the armed plan's injection horizon: the first
// dynamic index at which the plan could act. No instruction before it can
// land a flip or observe a stuck-at hold, so run lets the fast tiers
// execute up to it, steps the instruction at the horizon through the
// observer tier, and asks again. The RNG is drawn only when a flip lands,
// which still happens in step, so the horizon never changes a result.
//
//   - Follow-up flips: nothing is due before nextDyn (maybeInjectRead and
//     maybeInjectWrite skip every earlier instruction).
//   - A live stuck-at hold observes every read: the horizon is now.
//   - First inject-on-write flip: an instruction makes at most one write
//     candidate (a call's result counts at its ret), so FirstCand is at
//     least FirstCand-writes instructions away.
//   - First inject-on-read or stuck-at candidate: an instruction consumes
//     at most MaxNR read slots, and the instruction holding slot FirstCand
//     starts at most MaxNR-1 slots before it, so it is at least
//     (FirstCand-readSlots)/MaxNR instructions away.
//
// Until the first flip the counters cannot pass FirstCand (restore rejects
// a snapshot beyond it), so the subtractions do not wrap.
func (m *machine) injHorizon() uint64 {
	p := m.plan
	switch {
	case m.firstDone && p.Stuck:
		return m.dyn
	case m.firstDone:
		return m.nextDyn
	case p.OnWrite:
		return m.dyn + (p.FirstCand - m.writes)
	}
	nr := uint64(m.prog.MaxNR())
	if nr == 0 {
		// A program that reads no register, or was never validated: step,
		// as without a horizon.
		return m.dyn
	}
	return m.dyn + (p.FirstCand-m.readSlots)/nr
}

// maybeInjectRead performs due inject-on-read flips for the instruction at
// dynamic index di, before it executes. nr is the instruction's register
// read-slot count.
func (m *machine) maybeInjectRead(di uint64, in *ir.Instr, regs []uint64, nr int) {
	p := m.plan
	if p.Stuck {
		m.stuckRead(di, in, regs, nr)
		return
	}
	if !m.firstDone {
		if nr == 0 || m.readSlots+uint64(nr) <= p.FirstCand {
			return
		}
		slot := int(p.FirstCand - m.readSlots)
		reg := in.ReadSlot(slot)
		m.applyFirst(di, regs, reg, ir.SlotWidth(in, slot).Bits(), ir.ReadSlotRole(in, slot))
		return
	}
	if di < m.nextDyn || nr == 0 {
		return
	}
	slot := p.Rng.Intn(nr)
	reg := in.ReadSlot(slot)
	m.applyFollow(di, regs, reg, ir.SlotWidth(in, slot).Bits())
}

// maybeInjectWrite performs due inject-on-write flips for the destination
// register dst (role, per ir.DestRole), just written by the instruction
// at dynamic index di.
func (m *machine) maybeInjectWrite(di uint64, w ir.Width, regs []uint64, dst ir.Reg, role ir.SlotRole) {
	p := m.plan
	if !m.firstDone {
		// m.writes has already been incremented for this instruction, so
		// the candidate index of this write is m.writes-1.
		if m.writes-1 != p.FirstCand {
			return
		}
		m.applyFirst(di, regs, dst, w.Bits(), role)
		return
	}
	if di < m.nextDyn {
		return
	}
	m.applyFollow(di, regs, dst, w.Bits())
}

// applyFirst performs the first injection on reg (width wbits, role per
// the injecting slot), recording the uniform first-flip metadata every
// fault model reports: bit position, pre-flip bit value (the flip
// direction) and target role. Multi-bit first flips have no single bit
// or direction and leave firstBit/firstPre at -1.
func (m *machine) applyFirst(di uint64, regs []uint64, reg ir.Reg, wbits int, role ir.SlotRole) {
	p := m.plan
	m.firstDone = true
	m.firstRole = role
	if p.SameReg {
		var mask uint64
		if p.PinnedBit >= 0 {
			// Honour the pin as one of the flipped bits, then add the rest.
			mask = 1 << uint(p.PinnedBit%wbits)
			for popcount(mask) < p.MaxFlips && popcount(mask) < wbits {
				mask |= p.Rng.DistinctBits(1, wbits)
			}
		} else {
			mask = p.Rng.DistinctBits(p.MaxFlips, wbits)
		}
		n := popcount(mask)
		if n == 1 {
			m.firstBit = trailingZeros(mask)
			m.firstPre = int((regs[reg] >> uint(m.firstBit)) & 1)
		}
		regs[reg] ^= mask
		m.injected += n
		for i := 0; i < n; i++ {
			m.injDyns = append(m.injDyns, di)
		}
		m.endPlan()
		return
	}
	bit := p.PinnedBit
	if bit < 0 {
		bit = p.Rng.Intn(wbits)
	} else {
		bit %= wbits
	}
	m.firstBit = bit
	m.firstPre = int((regs[reg] >> uint(bit)) & 1)
	regs[reg] ^= 1 << uint(bit)
	m.injected++
	m.injDyns = append(m.injDyns, di)
	if m.injected >= p.MaxFlips {
		m.endPlan()
		return
	}
	m.nextDyn = di + p.NextWindow(p.Rng)
}

// stuckRead drives the stuck-at model (Plan.Stuck): the first due
// candidate picks the held register and bit, and every later read of
// that register forces the bit to the held value until the window
// elapses or the activation frame returns. Frames deeper than the
// activation frame (callees) have their own register files and are
// skipped; a *different* frame at the activation depth is unreachable
// while the hold is live, because replacing it requires first executing
// an instruction at a shallower depth, which deactivates here.
func (m *machine) stuckRead(di uint64, in *ir.Instr, regs []uint64, nr int) {
	p := m.plan
	if !m.firstDone {
		if nr == 0 || m.readSlots+uint64(nr) <= p.FirstCand {
			return
		}
		slot := int(p.FirstCand - m.readSlots)
		reg := in.ReadSlot(slot)
		wbits := ir.SlotWidth(in, slot).Bits()
		bit := p.PinnedBit
		if bit < 0 {
			bit = p.Rng.Intn(wbits)
		} else {
			bit %= wbits
		}
		m.firstDone = true
		m.firstBit = bit
		// The anchor read's slot role; the pre-flip value is recorded by
		// the first value-changing force (forceHeld), since activation
		// alone may never change a value.
		m.firstRole = ir.ReadSlotRole(in, slot)
		m.holdReg = reg
		m.holdBit = bit
		m.holdEnd = di + p.HoldWindow
		m.holdDepth = len(m.frames)
		m.forceHeld(di, regs)
		return
	}
	if di >= m.holdEnd || len(m.frames) < m.holdDepth {
		m.endPlan()
		return
	}
	if len(m.frames) != m.holdDepth {
		return // inside a callee: its registers are not the held register
	}
	for s := 0; s < nr; s++ {
		if in.ReadSlot(s) != m.holdReg {
			continue
		}
		// The read observes the held bit only when its slot width covers
		// it: a narrower read is not corrupted and must neither force the
		// register nor count an activation — the transient model's
		// flip-within-slot-width rule, applied per read. One clamp covers
		// every observing slot (the register itself is forced).
		if m.holdBit < ir.SlotWidth(in, s).Bits() {
			m.forceHeld(di, regs)
			return
		}
	}
}

// forceHeld clamps the held bit to the stuck value, counting an
// activated error only when the read value actually changes.
func (m *machine) forceHeld(di uint64, regs []uint64) {
	mask := uint64(1) << uint(m.holdBit)
	old := regs[m.holdReg]
	nv := old &^ mask
	if m.plan.StuckHigh {
		nv = old | mask
	}
	if nv != old {
		if m.firstPre < 0 {
			m.firstPre = int((old >> uint(m.holdBit)) & 1)
		}
		regs[m.holdReg] = nv
		m.injected++
		m.injDyns = append(m.injDyns, di)
	}
}

// applyFollow performs a follow-up injection (multi-register mode).
func (m *machine) applyFollow(di uint64, regs []uint64, reg ir.Reg, wbits int) {
	p := m.plan
	regs[reg] ^= 1 << uint(p.Rng.Intn(wbits))
	m.injected++
	m.injDyns = append(m.injDyns, di)
	if m.injected >= p.MaxFlips {
		m.endPlan()
		return
	}
	m.nextDyn = di + p.NextWindow(p.Rng)
}
