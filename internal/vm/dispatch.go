package vm

// Token-threaded dispatch: ir.Validate resolves every instruction to a
// dispatch token, and this file defines the per-token handlers plus the
// indirect handler table. Specialized tokens (64-bit register-register
// adds, register-addressed loads, ...) bind operand kinds and widths at
// validation time, so their handlers carry no per-execution operand
// tests.
//
// The handlers are the VM's one hand-written implementation of the
// instruction semantics, and two loops drive them. The observer tier
// (machine.step) interleaves injection checks and role tallies between
// handlers: every instruction of a role-counting run, and an armed plan's
// instructions at its injection horizon (machine.injHorizon), the only
// places a flip can land. The fast tier (machine.sprint in vm.go) runs
// everything else that no compiled kernel covers, the gaps between an
// armed plan's injection points included, with no per-instruction
// observers. The generated kernels (kern.go) are the other
// implementation; the differential tests hold them to this one.

import (
	"encoding/binary"
	"math"

	"multiflip/internal/ir"
)

// stat is a handler's report of how an instruction left the control
// state.
type stat uint8

const (
	// statNext: straight-line success; the loop advances pc and accounts
	// the destination write.
	statNext stat = iota
	// statJump: pc is already set (branches).
	statJump
	// statOutput: an output instruction brought the output to the check
	// length (machine.outCheck); the loop advances pc and runs the output
	// event (machine.outEvent).
	statOutput
	// statFrame: a frame was pushed (call); reload the frame pointer.
	statFrame
	// statRet: a frame was popped without writing a caller result.
	statRet
	// statRetWrote: a frame was popped and the caller's result register
	// (machine.retDst) was written — an inject-on-write candidate.
	statRetWrote
	// statHalt: the run is over; m.stop (and m.trap) are set.
	statHalt
)

type handlerFunc func(m *machine, fr *frame, in *ir.Instr) stat

// handlers is sized 256 and indexed by the uint8-typed token, so lookups
// compile without bounds checks. init fills the unassigned tail with the
// abort handler and verifies every declared token has a handler.
var handlers [256]handlerFunc

func init() {
	assign := map[ir.Token]handlerFunc{
		ir.TokInvalid:    hAbort,
		ir.TokAdd:        hAdd,
		ir.TokSub:        hSub,
		ir.TokMul:        hMul,
		ir.TokAnd:        hAnd,
		ir.TokOr:         hOr,
		ir.TokXor:        hXor,
		ir.TokShl:        hShl,
		ir.TokLShr:       hLShr,
		ir.TokAShr:       hAShr,
		ir.TokDiv:        hDiv,
		ir.TokFBin:       hFBin,
		ir.TokFNeg:       hFNeg,
		ir.TokFAbs:       hFAbs,
		ir.TokFSqrt:      hFSqrt,
		ir.TokSExt:       hSExt,
		ir.TokZTrunc:     hZTrunc,
		ir.TokSIToFP:     hSIToFP,
		ir.TokFPToSI:     hFPToSI,
		ir.TokMov:        hMov,
		ir.TokCmpEQ:      hCmpEQ,
		ir.TokCmpNE:      hCmpNE,
		ir.TokCmpULT:     hCmpULT,
		ir.TokCmpULE:     hCmpULE,
		ir.TokCmpSLT:     hCmpSLT,
		ir.TokCmpSLE:     hCmpSLE,
		ir.TokFCmp:       hFCmp,
		ir.TokSelect:     hSelect,
		ir.TokLoad:       hLoad,
		ir.TokStore:      hStore,
		ir.TokAlloca:     hAlloca,
		ir.TokBr:         hBr,
		ir.TokCondBr:     hCondBr,
		ir.TokCall:       hCall,
		ir.TokRet:        hRet,
		ir.TokOut:        hOut,
		ir.TokAbort:      hAbort,
		ir.TokAdd64RR:    hAdd64RR,
		ir.TokAdd64RI:    hAdd64RI,
		ir.TokAdd32RR:    hAdd32RR,
		ir.TokAdd32RI:    hAdd32RI,
		ir.TokXor64RR:    hXor64RR,
		ir.TokCmpSLT32RR: hCmpSLT32RR,
		ir.TokLoadR:      hLoadR,
		ir.TokStoreRR:    hStoreRR,
		ir.TokMovR:       hMovR,
	}
	if len(assign) != int(ir.NumTokens) {
		panic("vm: dispatch table does not cover the token space")
	}
	for i := range handlers {
		handlers[i] = hAbort
	}
	for tok, h := range assign {
		handlers[tok] = h
	}
}

func hAdd(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = (val(regs, in.A) + val(regs, in.B)) & in.W.Mask()
	return statNext
}

func hAdd64RR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = regs[in.A.RegRaw()] + regs[in.B.RegRaw()]
	return statNext
}

func hAdd64RI(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = regs[in.A.RegRaw()] + in.B.ImmRaw()
	return statNext
}

func hAdd32RR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = uint64(uint32(regs[in.A.RegRaw()]) + uint32(regs[in.B.RegRaw()]))
	return statNext
}

func hAdd32RI(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = uint64(uint32(regs[in.A.RegRaw()]) + uint32(in.B.ImmRaw()))
	return statNext
}

func hCmpSLT32RR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = boolBit(int32(regs[in.A.RegRaw()]) < int32(regs[in.B.RegRaw()]))
	return statNext
}

func hSub(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = (val(regs, in.A) - val(regs, in.B)) & in.W.Mask()
	return statNext
}

func hMul(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = (val(regs, in.A) * val(regs, in.B)) & in.W.Mask()
	return statNext
}

func hAnd(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = val(regs, in.A) & val(regs, in.B) & in.W.Mask()
	return statNext
}

func hOr(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = (val(regs, in.A) | val(regs, in.B)) & in.W.Mask()
	return statNext
}

func hXor(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = (val(regs, in.A) ^ val(regs, in.B)) & in.W.Mask()
	return statNext
}

func hXor64RR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = regs[in.A.RegRaw()] ^ regs[in.B.RegRaw()]
	return statNext
}

func hShl(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	sh := val(regs, in.B) & uint64(in.W.Bits()-1)
	regs[in.Dst] = ((val(regs, in.A) & mask) << sh) & mask
	return statNext
}

func hLShr(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	sh := val(regs, in.B) & uint64(in.W.Bits()-1)
	regs[in.Dst] = (val(regs, in.A) & mask) >> sh
	return statNext
}

func hAShr(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	w := in.W
	sh := val(regs, in.B) & w.Mask() & uint64(w.Bits()-1)
	regs[in.Dst] = uint64(w.SignExtend(val(regs, in.A)&w.Mask())>>sh) & w.Mask()
	return statNext
}

func hDiv(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	a := val(regs, in.A) & mask
	b := val(regs, in.B) & mask
	r, trap := intDiv(in.Op, in.W, a, b)
	if trap != TrapNone {
		m.trapOut(trap)
		return statHalt
	}
	regs[in.Dst] = r & mask
	return statNext
}

func hFBin(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	a := math.Float64frombits(val(regs, in.A))
	b := math.Float64frombits(val(regs, in.B))
	regs[in.Dst] = math.Float64bits(floatBin(in.Op, a, b))
	return statNext
}

func hFNeg(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = math.Float64bits(-math.Float64frombits(val(regs, in.A)))
	return statNext
}

func hFAbs(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = math.Float64bits(math.Abs(math.Float64frombits(val(regs, in.A))))
	return statNext
}

func hFSqrt(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = math.Float64bits(math.Sqrt(math.Float64frombits(val(regs, in.A))))
	return statNext
}

func hSExt(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = uint64(in.W.SignExtend(val(regs, in.A) & in.W.Mask()))
	return statNext
}

func hZTrunc(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = val(regs, in.A) & in.W.Mask()
	return statNext
}

func hSIToFP(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = math.Float64bits(float64(in.W.SignExtend(val(regs, in.A) & in.W.Mask())))
	return statNext
}

func hFPToSI(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = fpToSI(math.Float64frombits(val(regs, in.A)), in.W)
	return statNext
}

func hMov(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = val(regs, in.A)
	return statNext
}

func hMovR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	regs[in.Dst] = regs[in.A.RegRaw()]
	return statNext
}

func hCmpEQ(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	regs[in.Dst] = boolBit(val(regs, in.A)&mask == val(regs, in.B)&mask)
	return statNext
}

func hCmpNE(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	regs[in.Dst] = boolBit(val(regs, in.A)&mask != val(regs, in.B)&mask)
	return statNext
}

func hCmpULT(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	regs[in.Dst] = boolBit(val(regs, in.A)&mask < val(regs, in.B)&mask)
	return statNext
}

func hCmpULE(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	mask := in.W.Mask()
	regs[in.Dst] = boolBit(val(regs, in.A)&mask <= val(regs, in.B)&mask)
	return statNext
}

func hCmpSLT(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	w := in.W
	mask := w.Mask()
	regs[in.Dst] = boolBit(w.SignExtend(val(regs, in.A)&mask) < w.SignExtend(val(regs, in.B)&mask))
	return statNext
}

func hCmpSLE(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	w := in.W
	mask := w.Mask()
	regs[in.Dst] = boolBit(w.SignExtend(val(regs, in.A)&mask) <= w.SignExtend(val(regs, in.B)&mask))
	return statNext
}

func hFCmp(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	a := math.Float64frombits(val(regs, in.A))
	b := math.Float64frombits(val(regs, in.B))
	regs[in.Dst] = boolBit(floatCmp(in.Op, a, b))
	return statNext
}

func hSelect(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	if val(regs, in.A) != 0 {
		regs[in.Dst] = val(regs, in.B)
	} else {
		regs[in.Dst] = val(regs, in.C)
	}
	return statNext
}

func hLoad(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	addr := val(regs, in.A) + uint64(in.Off)
	v, trap := m.load(addr, in.W.Bytes())
	if trap != TrapNone {
		m.trapOut(trap)
		return statHalt
	}
	regs[in.Dst] = v
	return statNext
}

func hLoadR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	addr := regs[in.A.RegRaw()] + uint64(in.Off)
	v, trap := m.load(addr, in.W.Bytes())
	if trap != TrapNone {
		m.trapOut(trap)
		return statHalt
	}
	regs[in.Dst] = v
	return statNext
}

func hStore(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	addr := val(regs, in.A) + uint64(in.Off)
	if trap := m.store(addr, in.W.Bytes(), val(regs, in.B)); trap != TrapNone {
		m.trapOut(trap)
		return statHalt
	}
	return statNext
}

func hStoreRR(m *machine, fr *frame, in *ir.Instr) stat {
	regs := fr.regs
	addr := regs[in.A.RegRaw()] + uint64(in.Off)
	if trap := m.store(addr, in.W.Bytes(), regs[in.B.RegRaw()]); trap != TrapNone {
		m.trapOut(trap)
		return statHalt
	}
	return statNext
}

func hAlloca(m *machine, fr *frame, in *ir.Instr) stat {
	size := (in.Off + 7) &^ 7
	if m.sp+int(size) > m.stack.n {
		m.trapOut(TrapStackOverflow)
		return statHalt
	}
	fr.regs[in.Dst] = uint64(ir.StackBase + m.sp)
	m.sp += int(size)
	if m.sp > m.stackHW {
		m.stackHW = m.sp
		// flat keeps covering the live range, so loads and stores can
		// index it directly.
		m.stack.growFlat(m.sp)
	}
	return statNext
}

func hBr(m *machine, fr *frame, in *ir.Instr) stat {
	fr.pc = int(in.Off)
	return statJump
}

func hCondBr(m *machine, fr *frame, in *ir.Instr) stat {
	if val(fr.regs, in.A) != 0 {
		fr.pc = int(in.Off)
	} else {
		fr.pc++
	}
	return statJump
}

func hCall(m *machine, fr *frame, in *ir.Instr) stat {
	if len(m.frames) >= m.maxDepth {
		m.trapOut(TrapStackOverflow)
		return statHalt
	}
	var argbuf [8]uint64
	args := argbuf[:0]
	for _, a := range in.Args {
		args = append(args, val(fr.regs, a))
	}
	fr.pc++ // resume after the call
	// The call's destination is written when the callee returns; it
	// becomes an inject-on-write candidate at OpRet.
	m.pushFrame(int(in.Off), args, in.Dst, in.HasDst())
	return statFrame
}

func hRet(m *machine, fr *frame, in *ir.Instr) stat {
	retVal := uint64(0)
	if !in.A.IsNone() {
		retVal = val(fr.regs, in.A)
	}
	m.sp = fr.savedSP
	m.regTop = fr.regBase
	retDst, hasRet := fr.retDst, fr.hasRet
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) == 0 {
		m.stop = StopReturned
		return statHalt
	}
	if hasRet {
		// The caller's Call instruction wrote its destination now; the
		// dispatch loop accounts the write (and injects into it).
		m.frames[len(m.frames)-1].regs[retDst] = retVal
		m.retDst = retDst
		return statRetWrote
	}
	return statRet
}

func hOut(m *machine, fr *frame, in *ir.Instr) stat {
	if !m.outAppend(val(fr.regs, in.A)&in.W.Mask(), in.W.Bytes()) {
		m.stop = StopOutputLimit
		return statHalt
	}
	if len(m.out) >= m.outCheck {
		return statOutput
	}
	return statNext
}

// outAppend appends the low n bytes of v little-endian to the output
// buffer and reports whether the output limit still holds. hOut and the
// generated kernels' Out instructions both frame output through it.
func (m *machine) outAppend(v uint64, n int) bool {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.out = append(m.out, buf[:n]...)
	return len(m.out) <= m.maxOut
}

// hAbort ends the run with an abort trap. It serves the abort
// instruction, TokInvalid (an unvalidated program) and the table's
// unused slots.
func hAbort(m *machine, fr *frame, in *ir.Instr) stat {
	m.trapOut(TrapAbort)
	return statHalt
}
