package ir

// This file defines the dispatch metadata consumed by the VM's
// token-threaded interpreter. Validate resolves every instruction to a
// dispatch Token — a per-opcode handler index, specialized by operand
// kind and width where that removes per-execution branches.
//
// Tokens are pure annotations: the instruction stream, its PCs, and its
// injection-candidate accounting are unchanged. The VM implements each
// token once, as a handler in its handler table, which both of its
// interpreter loops (the fast sprint and the observer tier's step)
// drive.

// Token indexes the VM's handler table. It is resolved once per
// instruction at validation time, so per-execution dispatch is a single
// table load: the token already encodes choices — opcode, operand
// immediacy, width — that the interpreter would otherwise re-test on
// every dynamic execution.
type Token uint8

// Dispatch tokens. The generic per-opcode tokens mirror the opcode set;
// the specialized tokens at the end resolve operand kind and width for
// the hottest shapes (64-bit address arithmetic, register-addressed
// memory access, register moves).
const (
	// TokInvalid marks an unvalidated instruction; the VM's handler for
	// it raises an abort trap.
	TokInvalid Token = iota

	TokAdd
	TokSub
	TokMul
	TokAnd
	TokOr
	TokXor
	TokShl
	TokLShr
	TokAShr
	TokDiv // UDiv/SDiv/URem/SRem
	TokFBin
	TokFNeg
	TokFAbs
	TokFSqrt
	TokSExt
	TokZTrunc // ZExt/Trunc (identical semantics: mask to width)
	TokSIToFP
	TokFPToSI
	TokMov // Mov/Bitcast
	TokCmpEQ
	TokCmpNE
	TokCmpULT
	TokCmpULE
	TokCmpSLT
	TokCmpSLE
	TokFCmp
	TokSelect
	TokLoad
	TokStore
	TokAlloca
	TokBr
	TokCondBr
	TokCall
	TokRet
	TokOut
	TokAbort

	// Specialized tokens: operand kinds and widths resolved at validation
	// time, so the handlers skip the imm/reg tests and width masking the
	// generic handlers pay per execution.
	TokAdd64RR    // add.64 dst, reg, reg — address arithmetic
	TokAdd64RI    // add.64 dst, reg, imm — address/induction arithmetic
	TokAdd32RR    // add.32 dst, reg, reg — index arithmetic
	TokAdd32RI    // add.32 dst, reg, imm — index/induction arithmetic
	TokXor64RR    // xor.64 dst, reg, reg
	TokCmpSLT32RR // icmp.slt.32 dst, reg, reg — loop/compare bounds
	TokLoadR      // load with a register address operand
	TokStoreRR    // store with register address and register value
	TokMovR       // mov/bitcast from a register

	// NumTokens sizes token-indexed tables.
	NumTokens
)

// tokenOf resolves an instruction's dispatch token. Called by Validate.
func tokenOf(in *Instr) Token {
	switch in.Op {
	case OpAdd:
		if in.W == W64 && in.A.IsReg() {
			if in.B.IsReg() {
				return TokAdd64RR
			}
			if in.B.IsImm() {
				return TokAdd64RI
			}
		}
		if in.W == W32 && in.A.IsReg() {
			if in.B.IsReg() {
				return TokAdd32RR
			}
			if in.B.IsImm() {
				return TokAdd32RI
			}
		}
		return TokAdd
	case OpSub:
		return TokSub
	case OpMul:
		return TokMul
	case OpAnd:
		return TokAnd
	case OpOr:
		return TokOr
	case OpXor:
		if in.W == W64 && in.A.IsReg() && in.B.IsReg() {
			return TokXor64RR
		}
		return TokXor
	case OpShl:
		return TokShl
	case OpLShr:
		return TokLShr
	case OpAShr:
		return TokAShr
	case OpUDiv, OpSDiv, OpURem, OpSRem:
		return TokDiv
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		return TokFBin
	case OpFNeg:
		return TokFNeg
	case OpFAbs:
		return TokFAbs
	case OpFSqrt:
		return TokFSqrt
	case OpSExt:
		return TokSExt
	case OpZExt, OpTrunc:
		return TokZTrunc
	case OpSIToFP:
		return TokSIToFP
	case OpFPToSI:
		return TokFPToSI
	case OpMov, OpBitcast:
		if in.A.IsReg() {
			return TokMovR
		}
		return TokMov
	case OpICmpEQ:
		return TokCmpEQ
	case OpICmpNE:
		return TokCmpNE
	case OpICmpULT:
		return TokCmpULT
	case OpICmpULE:
		return TokCmpULE
	case OpICmpSLT:
		if in.W == W32 && in.A.IsReg() && in.B.IsReg() {
			return TokCmpSLT32RR
		}
		return TokCmpSLT
	case OpICmpSLE:
		return TokCmpSLE
	case OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE:
		return TokFCmp
	case OpSelect:
		return TokSelect
	case OpLoad:
		if in.A.IsReg() {
			return TokLoadR
		}
		return TokLoad
	case OpStore:
		if in.A.IsReg() && in.B.IsReg() {
			return TokStoreRR
		}
		return TokStore
	case OpAlloca:
		return TokAlloca
	case OpBr:
		return TokBr
	case OpCondBr:
		return TokCondBr
	case OpCall:
		return TokCall
	case OpRet:
		return TokRet
	case OpOut:
		return TokOut
	case OpAbort:
		return TokAbort
	}
	return TokInvalid
}

// RegRaw returns the operand's register id without checking the operand
// kind. Only dispatch handlers whose token guarantees a register operand
// (resolved at validation time) may use it.
func (o Operand) RegRaw() Reg { return o.reg }

// ImmRaw returns the operand's raw immediate payload without checking the
// operand kind. Only dispatch handlers whose token guarantees an
// immediate operand may use it.
func (o Operand) ImmRaw() uint64 { return o.imm }
