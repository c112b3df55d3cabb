// Package liveness implements a bit-level static liveness analysis over
// validated IR: for every (pc, register, bit) it decides whether a flip
// of that bit, applied at that program point, is provably unobservable —
// the bit is read by no instruction before every path out of the frame
// overwrites it or discards the register file — or possibly live.
//
// The analysis is the static half of the campaign engine's pruning
// ladder (BEC-style, see PAPERS.md): convergence gating prunes faults
// that die *dynamically*, while this pass classifies flips into
// statically dead bits as Benign with zero execution. Precision below register granularity comes from vacated-bit
// transfer functions: an `and` with an immediate mask kills the masked
// bits of its operand, a narrowing store observes only the stored bits, a
// shift vacates the bits it discards, and carries in add/sub/mul
// propagate strictly upward.
//
// Soundness is the only hard requirement — every transfer function may
// over-approximate liveness but must never report a bit dead whose flip
// could change any observable (output bytes, traps, termination, or the
// dynamic instruction count). Branch conditions, memory addresses,
// divisor operands, call arguments and returned values are therefore
// always fully live: they feed control flow, the trap surface, or
// another frame. The differential suites in internal/core and the
// FuzzVM liveness check enforce the contract by re-executing statically
// pruned flips and asserting nothing changed.
package liveness

import (
	"math/bits"

	"multiflip/internal/ir"
)

// Analysis holds the per-function liveness results for one program.
type Analysis struct {
	funcs []funcLive
}

type funcLive struct {
	// liveIn[pc][reg] is the set of bits of reg that some path starting
	// at pc (before executing pc's instruction) may observe.
	liveIn [][]uint64
	// deadRead[pc][slot] is the set of bits within the slot's injection
	// width whose flip, applied just before pc executes (the VM's
	// inject-on-read point), is provably unobservable.
	deadRead [][]uint64
	// deadWrite[pc] is the set of bits within the destination's injection
	// width whose flip, applied just after pc's destination write lands
	// (the VM's inject-on-write point — for calls, the matching return),
	// is provably unobservable.
	deadWrite []uint64
}

// Analyze runs the analysis on a validated program. It trusts the caches
// Program.Validate populates (NR, DW), like the VM does.
func Analyze(p *ir.Program) *Analysis {
	a := &Analysis{funcs: make([]funcLive, len(p.Funcs))}
	for i, f := range p.Funcs {
		a.funcs[i] = analyzeFunc(f)
	}
	return a
}

// LiveIn returns the live-bit mask of reg just before (fn, pc) executes.
func (a *Analysis) LiveIn(fn, pc int, reg ir.Reg) uint64 {
	return a.funcs[fn].liveIn[pc][reg]
}

// DeadReadBits returns the bits (within the slot's injection width) that
// are provably dead for an inject-on-read flip at (fn, pc, slot).
func (a *Analysis) DeadReadBits(fn, pc, slot int) uint64 {
	return a.funcs[fn].deadRead[pc][slot]
}

// DeadWriteBits returns the bits (within the destination's injection
// width) that are provably dead for an inject-on-write flip at the
// instruction (fn, pc). For calls the flip lands at the matching return,
// with the caller resuming at pc+1, which is the same program point.
func (a *Analysis) DeadWriteBits(fn, pc int) uint64 {
	return a.funcs[fn].deadWrite[pc]
}

// FuncStat summarizes the static dead-bit density of one function: how
// many of its injection-candidate bits (read slots and destination
// writes, summed over static instructions) are provably dead.
type FuncStat struct {
	Name      string
	ReadBits  int // total read-slot candidate bits
	DeadRead  int // provably dead read-slot bits
	WriteBits int // total destination-write candidate bits
	DeadWrite int // provably dead destination-write bits
}

// Density returns the dead fraction of the function's candidate bits,
// or 0 when it has none.
func (s FuncStat) Density() float64 {
	total := s.ReadBits + s.WriteBits
	if total == 0 {
		return 0
	}
	return float64(s.DeadRead+s.DeadWrite) / float64(total)
}

// Stats returns per-function dead-bit density statistics, indexed like
// p.Funcs.
func (a *Analysis) Stats(p *ir.Program) []FuncStat {
	out := make([]FuncStat, len(p.Funcs))
	for fi, f := range p.Funcs {
		st := FuncStat{Name: f.Name}
		fl := &a.funcs[fi]
		for pc := range f.Code {
			in := &f.Code[pc]
			for s := 0; s < int(in.NR); s++ {
				w := widthBits(ir.SlotWidth(in, s))
				st.ReadBits += w
				st.DeadRead += bits.OnesCount64(fl.deadRead[pc][s])
			}
			if in.Dst != ir.NoReg {
				st.WriteBits += destWidthBits(in)
				st.DeadWrite += bits.OnesCount64(fl.deadWrite[pc])
			}
		}
		out[fi] = st
	}
	return out
}

// ProgStat aggregates Stats over the whole program.
func (a *Analysis) ProgStat(p *ir.Program) FuncStat {
	var st FuncStat
	st.Name = p.Name
	for _, f := range a.Stats(p) {
		st.ReadBits += f.ReadBits
		st.DeadRead += f.DeadRead
		st.WriteBits += f.WriteBits
		st.DeadWrite += f.DeadWrite
	}
	return st
}

// widthBits is Width.Bits with W1 folded to one bit (its value).
func widthBits(w ir.Width) int { return w.Bits() }

// destWidthBits returns the inject-on-write sampling width of in's
// destination in bits: DestWidth for plain writes, 64 for call results
// (the VM injects those at the matching return with full width).
func destWidthBits(in *ir.Instr) int {
	if in.Op == ir.OpCall {
		return 64
	}
	return ir.DestWidth(in).Bits()
}

func maskOfBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// analyzeFunc runs the backward bit-level fixed point over one function.
func analyzeFunc(f *ir.Func) funcLive {
	n := len(f.Code)
	nr := f.NumRegs

	leaders := ir.BlockLeaders(f)
	nb := len(leaders)
	blockOf := make([]int, n)
	for b := 0; b < nb; b++ {
		end := n
		if b+1 < nb {
			end = leaders[b+1]
		}
		for pc := leaders[b]; pc < end; pc++ {
			blockOf[pc] = b
		}
	}
	blockEnd := func(b int) int {
		if b+1 < nb {
			return leaders[b+1]
		}
		return n
	}

	// Successor blocks, from each block's final instruction. A block may
	// also end simply because the next pc is a leader (a branch target or
	// a call/ret boundary), in which case it falls through.
	succs := make([][]int, nb)
	preds := make([][]int, nb)
	for b := 0; b < nb; b++ {
		last := &f.Code[blockEnd(b)-1]
		var s []int
		switch last.Op {
		case ir.OpBr:
			s = []int{blockOf[last.Off]}
		case ir.OpCondBr:
			s = []int{blockOf[last.Off]}
			if blockEnd(b) < n {
				s = append(s, blockOf[blockEnd(b)])
			}
		case ir.OpRet, ir.OpAbort:
			// No successors: the frame's register file is discarded (ret
			// hands only its full-width operand to the caller, which the
			// transfer function makes fully live).
		default:
			if blockEnd(b) < n {
				s = []int{blockOf[blockEnd(b)]}
			}
		}
		succs[b] = s
		for _, t := range s {
			preds[t] = append(preds[t], b)
		}
	}

	// Backward worklist over blocks: liveInB[b] is the live set at block
	// entry. Masks only ever grow, so the fixed point terminates.
	liveInB := make([][]uint64, nb)
	for b := range liveInB {
		liveInB[b] = make([]uint64, nr)
	}
	inList := make([]bool, nb)
	list := make([]int, 0, nb)
	for b := nb - 1; b >= 0; b-- {
		list = append(list, b)
		inList[b] = true
	}
	scratch := make([]uint64, nr)
	for len(list) > 0 {
		b := list[len(list)-1]
		list = list[:len(list)-1]
		inList[b] = false

		for r := range scratch {
			scratch[r] = 0
		}
		for _, s := range succs[b] {
			for r, v := range liveInB[s] {
				scratch[r] |= v
			}
		}
		for pc := blockEnd(b) - 1; pc >= leaders[b]; pc-- {
			transfer(&f.Code[pc], scratch)
		}
		changed := false
		cur := liveInB[b]
		for r, v := range scratch {
			if v&^cur[r] != 0 {
				cur[r] |= v
				changed = true
			}
		}
		if changed {
			for _, p := range preds[b] {
				if !inList[p] {
					list = append(list, p)
					inList[p] = true
				}
			}
		}
	}

	// Materialize per-pc live-in sets with one final backward sweep per
	// block, then derive the dead-bit tables at the VM's two injection
	// points.
	flat := make([]uint64, n*nr)
	liveIn := make([][]uint64, n)
	for pc := range liveIn {
		liveIn[pc] = flat[pc*nr : (pc+1)*nr]
	}
	for b := 0; b < nb; b++ {
		for r := range scratch {
			scratch[r] = 0
		}
		for _, s := range succs[b] {
			for r, v := range liveInB[s] {
				scratch[r] |= v
			}
		}
		for pc := blockEnd(b) - 1; pc >= leaders[b]; pc-- {
			transfer(&f.Code[pc], scratch)
			copy(liveIn[pc], scratch)
		}
	}

	deadRead := make([][]uint64, n)
	deadWrite := make([]uint64, n)
	for pc := range f.Code {
		in := &f.Code[pc]
		if nrr := int(in.NR); nrr > 0 {
			dr := make([]uint64, nrr)
			for s := 0; s < nrr; s++ {
				reg := in.ReadSlot(s)
				// The flip lands before pc executes, so pc's own reads of
				// reg (part of liveIn[pc]) are included.
				dr[s] = ^liveIn[pc][reg] & maskOfBits(widthBits(ir.SlotWidth(in, s)))
			}
			deadRead[pc] = dr
		}
		if in.Dst != ir.NoReg && pc+1 < n {
			// The flip lands after the destination write; control then
			// resumes at pc+1 (for calls, the caller resumes there after
			// the matching return writes the result). A validated function
			// ends in ret/br/abort, none of which write a register, so
			// pc+1 is always in range here.
			deadWrite[pc] = ^liveIn[pc+1][in.Dst] & maskOfBits(destWidthBits(in))
		}
	}

	return funcLive{liveIn: liveIn, deadRead: deadRead, deadWrite: deadWrite}
}

// transfer rewrites live (the live-out set of in) into in's live-in set:
// kill the destination's bits, then add the bits each operand's
// observation generates. Gen masks mirror the VM's handler semantics
// exactly; when in doubt they err toward live.
func transfer(in *ir.Instr, live []uint64) {
	const full = ^uint64(0)
	// Kill: every register write stores a full 64-bit value (arithmetic
	// results arrive masked-and-zero-extended, loads zero-extend, calls
	// write the full returned word).
	var liveDst uint64
	if in.Dst != ir.NoReg {
		liveDst = live[in.Dst]
		live[in.Dst] = 0
	}
	gen := func(o ir.Operand, mask uint64) {
		if mask != 0 && o.IsReg() {
			live[o.Reg()] |= mask
		}
	}
	mask := in.W.Mask() // zero for the width-less ops, unused there

	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul:
		// Carries (and borrows, and partial products) propagate strictly
		// upward: operand bit i can only influence result bits >= i.
		g := upToMSB(liveDst & mask)
		gen(in.A, g)
		gen(in.B, g)
	case ir.OpAnd:
		d := liveDst & mask
		ga, gb := d, d
		if in.B.IsImm() {
			ga = d & in.B.Imm() // bits the immediate clears are vacated
		}
		if in.A.IsImm() {
			gb = d & in.A.Imm()
		}
		gen(in.A, ga)
		gen(in.B, gb)
	case ir.OpOr:
		d := liveDst & mask
		ga, gb := d, d
		if in.B.IsImm() {
			ga = d &^ in.B.Imm() // bits the immediate forces to 1 are vacated
		}
		if in.A.IsImm() {
			gb = d &^ in.A.Imm()
		}
		gen(in.A, ga)
		gen(in.B, gb)
	case ir.OpXor:
		d := liveDst & mask
		gen(in.A, d)
		gen(in.B, d)
	case ir.OpShl:
		d := liveDst & mask
		if d == 0 {
			break // shifts cannot trap
		}
		if in.B.IsImm() {
			sh := uint(in.B.Imm()) & uint(in.W.Bits()-1)
			gen(in.A, d>>sh)
		} else {
			gen(in.A, upToMSB(d))
			gen(in.B, uint64(in.W.Bits()-1)) // the handler masks the count
		}
	case ir.OpLShr:
		d := liveDst & mask
		if d == 0 {
			break
		}
		if in.B.IsImm() {
			sh := uint(in.B.Imm()) & uint(in.W.Bits()-1)
			gen(in.A, (d<<sh)&mask)
		} else {
			// Operand bit i reaches result bits <= i, so everything at or
			// above the lowest live result bit matters.
			tz := uint(bits.TrailingZeros64(d))
			gen(in.A, mask&^(1<<tz-1))
			gen(in.B, uint64(in.W.Bits()-1))
		}
	case ir.OpAShr:
		d := liveDst & mask
		if d == 0 {
			break
		}
		sign := uint64(1) << uint(in.W.Bits()-1)
		if in.B.IsImm() {
			sh := uint(in.B.Imm()) & uint(in.W.Bits()-1)
			gen(in.A, (d<<sh)&mask|sign)
		} else {
			gen(in.A, mask)
			gen(in.B, uint64(in.W.Bits()-1))
		}
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		// The zero-divisor (and signed INT_MIN/-1) trap observes the
		// operands even when the quotient is dead.
		gen(in.A, mask)
		gen(in.B, mask)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		if liveDst != 0 {
			gen(in.A, full)
			gen(in.B, full)
		}
	case ir.OpFNeg, ir.OpFAbs, ir.OpFSqrt:
		if liveDst != 0 {
			gen(in.A, full)
		}
	case ir.OpSExt:
		g := liveDst & mask
		if liveDst>>uint(in.W.Bits()-1) != 0 {
			g |= 1 << uint(in.W.Bits()-1) // the sign bit feeds every high bit
		}
		gen(in.A, g)
	case ir.OpZExt, ir.OpTrunc:
		gen(in.A, liveDst&mask)
	case ir.OpSIToFP:
		if liveDst != 0 {
			gen(in.A, mask)
		}
	case ir.OpFPToSI:
		if liveDst != 0 {
			gen(in.A, full)
		}
	case ir.OpMov, ir.OpBitcast:
		gen(in.A, liveDst)
	case ir.OpICmpEQ, ir.OpICmpNE, ir.OpICmpULT, ir.OpICmpULE, ir.OpICmpSLT, ir.OpICmpSLE:
		if liveDst&1 != 0 {
			gen(in.A, mask)
			gen(in.B, mask)
		}
	case ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE:
		if liveDst&1 != 0 {
			gen(in.A, full)
			gen(in.B, full)
		}
	case ir.OpSelect:
		// The handler tests the full 64-bit condition word against zero.
		if liveDst != 0 {
			gen(in.A, full)
		}
		gen(in.B, liveDst)
		gen(in.C, liveDst)
	case ir.OpLoad:
		gen(in.A, full) // address: trap surface, always observable
	case ir.OpStore:
		gen(in.A, full) // address
		gen(in.B, mask) // the stored bits reach memory
	case ir.OpAlloca:
		// Size is a constant offset; no register reads.
	case ir.OpBr:
	case ir.OpCondBr:
		gen(in.A, full) // the handler tests the full word against zero
	case ir.OpCall:
		// The callee observes each argument at full width; liveness does
		// not cross frames.
		for _, arg := range in.Args {
			gen(arg, full)
		}
	case ir.OpRet:
		gen(in.A, full) // the full word escapes to the caller
	case ir.OpOut:
		gen(in.A, mask) // the low W bytes are output
	case ir.OpAbort:
	default:
		// Unknown opcode: treat every read operand as fully live.
		gen(in.A, full)
		gen(in.B, full)
		gen(in.C, full)
		for _, arg := range in.Args {
			gen(arg, full)
		}
	}
}

// upToMSB returns a mask covering bit 0 through the most significant set
// bit of x (zero for zero).
func upToMSB(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	n := bits.Len64(x)
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
