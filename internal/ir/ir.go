// Package ir defines a typed, LLVM-IR-like intermediate representation used
// as the fault-injection substrate of this repository.
//
// The original study (Sangchoolie et al., DSN 2017) extends LLFI, which
// injects bit flips into the virtual registers of LLVM IR. Go has no
// workable LLVM bindings, so this package reproduces the observables the
// fault model needs:
//
//   - programs are sequences of typed instructions over virtual registers;
//   - every dynamic instruction reads zero or more register operands
//     (inject-on-read candidates) and writes at most one destination
//     register (inject-on-write candidates);
//   - register payloads are raw 64-bit words, so a bit flip is an XOR mask.
//
// Instructions use a flat, PC-based encoding inside each function; the
// builder (builder.go) offers structured control flow on top.
package ir

import (
	"fmt"
	"math"
)

// Width is the operand width of an integer instruction. Float instructions
// always operate on 64-bit IEEE-754 payloads.
type Width uint8

// Supported integer operand widths.
const (
	W8 Width = iota + 1
	W16
	W32
	W64
)

// Bits returns the number of bits in the width.
func (w Width) Bits() int {
	// W8..W64 are 1..4, so their bit counts are 8 << (w-1); the branchless
	// form keeps this hot interpreter helper out of the profile.
	if n := uint(w) - 1; n < 4 {
		return 8 << n
	}
	if w == W1 {
		return 1
	}
	return 0
}

// Bytes returns the number of bytes in the width.
func (w Width) Bytes() int {
	if n := uint(w) - 1; n < 4 {
		return 1 << n
	}
	return w.Bits() / 8
}

// Mask returns a mask covering the low Bits() bits.
func (w Width) Mask() uint64 {
	if w == W64 {
		return ^uint64(0)
	}
	return 1<<uint(w.Bits()) - 1
}

// String implements fmt.Stringer.
func (w Width) String() string {
	if b := w.Bits(); b != 0 {
		return fmt.Sprintf("i%d", b)
	}
	return fmt.Sprintf("Width(%d)", uint8(w))
}

// SignExtend interprets v as a w-bit two's-complement integer and returns
// its 64-bit sign extension.
func (w Width) SignExtend(v uint64) int64 {
	switch w {
	case W8:
		return int64(int8(v))
	case W16:
		return int64(int16(v))
	case W32:
		return int64(int32(v))
	default:
		return int64(v)
	}
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. Integer arithmetic is width-sensitive (results are truncated to
// the instruction width); float arithmetic is 64-bit IEEE-754.
const (
	// Integer arithmetic and bitwise logic: Dst = A op B.
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpUDiv // traps on zero divisor
	OpSDiv // traps on zero divisor and INT_MIN/-1
	OpURem // traps on zero divisor
	OpSRem // traps on zero divisor and INT_MIN/-1
	OpAnd
	OpOr
	OpXor
	OpShl  // shift count masked to width, like common hardware
	OpLShr // logical shift right
	OpAShr // arithmetic shift right

	// Floating point (64-bit): Dst = A op B (or unary on A).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv // IEEE semantics: x/0 = ±Inf/NaN, no trap (matches FPU default)
	OpFNeg
	OpFAbs
	OpFSqrt

	// Conversions.
	OpSExt   // Dst = sign-extend(A) from width W to 64 bits
	OpZExt   // Dst = zero-extend(A) from width W (truncate then extend)
	OpTrunc  // Dst = A masked to width W
	OpSIToFP // Dst = float64(signed W-bit A)
	OpFPToSI // Dst = int64(float64 A), saturating, truncated to W
	OpBitcast

	// Comparisons: Dst = 1 if the relation holds over W-bit operands, else 0.
	OpICmpEQ
	OpICmpNE
	OpICmpULT
	OpICmpULE
	OpICmpSLT
	OpICmpSLE
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE

	// Data movement.
	OpMov    // Dst = A
	OpSelect // Dst = A != 0 ? B : C

	// Memory. Addresses are 64-bit virtual addresses; Off is a constant
	// byte displacement added to the A operand.
	OpLoad   // Dst = *(A + Off), W bytes, zero-extended
	OpStore  // *(A + Off) = B, W bytes
	OpAlloca // Dst = address of a fresh Off-byte stack block

	// Control flow. Branch targets are intra-function PCs held in Off.
	OpBr     // unconditional jump to Off
	OpCondBr // if A != 0 jump to Off, else fall through
	OpCall   // Dst = Funcs[Off](Args...); Dst may be NoReg
	OpRet    // return A (or nothing if A is the none operand)

	// Environment.
	OpOut   // append the low W bytes of A (little-endian) to the output
	OpAbort // terminate with an abort trap (self-detected failure)
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFAbs: "fabs", OpFSqrt: "fsqrt",
	OpSExt: "sext", OpZExt: "zext", OpTrunc: "trunc",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpBitcast: "bitcast",
	OpICmpEQ: "icmp.eq", OpICmpNE: "icmp.ne", OpICmpULT: "icmp.ult",
	OpICmpULE: "icmp.ule", OpICmpSLT: "icmp.slt", OpICmpSLE: "icmp.sle",
	OpFCmpEQ: "fcmp.eq", OpFCmpNE: "fcmp.ne", OpFCmpLT: "fcmp.lt",
	OpFCmpLE: "fcmp.le",
	OpMov:    "mov", OpSelect: "select",
	OpLoad: "load", OpStore: "store", OpAlloca: "alloca",
	OpBr: "br", OpCondBr: "condbr", OpCall: "call", OpRet: "ret",
	OpOut: "out", OpAbort: "abort",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Reg identifies a virtual register within a function frame.
type Reg uint16

// NoReg marks an absent destination register (e.g. stores, branches, calls
// to void functions). Instructions with Dst == NoReg are not candidates for
// inject-on-write.
const NoReg Reg = 0xffff

// Operand is either a virtual register or an immediate constant. Immediate
// operands are not fault-injection candidates: LLFI targets registers.
type Operand struct {
	imm   uint64
	reg   Reg
	isImm bool
	none  bool
}

// noneOperand is the absent operand (e.g. Ret with no value).
var noneOperand = Operand{none: true}

// R returns a register operand.
func R(r Reg) Operand { return Operand{reg: r} }

// C returns an immediate operand holding the raw 64-bit payload v.
func C(v uint64) Operand { return Operand{imm: v, isImm: true} }

// CI returns an immediate operand holding the two's-complement encoding of v.
func CI(v int64) Operand { return C(uint64(v)) }

// CF returns an immediate operand holding the IEEE-754 bits of v.
func CF(v float64) Operand { return C(math.Float64bits(v)) }

// IsImm reports whether the operand is an immediate constant.
func (o Operand) IsImm() bool { return o.isImm }

// IsReg reports whether the operand is a register.
func (o Operand) IsReg() bool { return !o.isImm && !o.none }

// IsNone reports whether the operand is absent.
func (o Operand) IsNone() bool { return o.none }

// Reg returns the register of a register operand. It panics otherwise.
func (o Operand) Reg() Reg {
	if !o.IsReg() {
		panic("ir: Reg() on non-register operand")
	}
	return o.reg
}

// Imm returns the payload of an immediate operand. It panics otherwise.
func (o Operand) Imm() uint64 {
	if !o.isImm {
		panic("ir: Imm() on non-immediate operand")
	}
	return o.imm
}

// String implements fmt.Stringer.
func (o Operand) String() string {
	switch {
	case o.none:
		return "_"
	case o.isImm:
		return fmt.Sprintf("#%d", o.imm)
	default:
		return fmt.Sprintf("r%d", o.reg)
	}
}

// Instr is a single IR instruction.
//
// Operand roles by opcode:
//
//	binary int/float ops:  Dst = A op B
//	unary ops:             Dst = op A
//	OpSelect:              Dst = A != 0 ? B : C
//	OpLoad:                Dst = mem[A + Off]
//	OpStore:               mem[A + Off] = B
//	OpAlloca:              Dst = new stack block of Off bytes
//	OpBr:                  goto Off
//	OpCondBr:              if A != 0 goto Off
//	OpCall:                Dst = Funcs[Off](Args...)
//	OpRet:                 return A (may be the none operand)
//	OpOut:                 emit low W bytes of A
type Instr struct {
	Op   Op
	W    Width
	Dst  Reg
	A    Operand
	B    Operand
	C    Operand
	Off  int64
	Args []Operand
	// NR caches NumRegReads(): the instruction's register-read operand
	// slot count, which the VM consumes on every dynamic execution.
	// Populated by Program.Validate (and therefore by Build).
	NR uint8
	// DW caches the instruction's destination-register write count (1 when
	// the instruction is an inject-on-write candidate at its own PC, else
	// 0; calls count at their matching return instead). Populated by
	// Program.Validate.
	DW uint8
	// Tok is the instruction's dispatch token: the VM handler-table index,
	// with operand kinds and widths resolved once. Populated by
	// Program.Validate; the zero value dispatches to an abort trap.
	Tok Token
}

// HasDst reports whether the instruction writes a destination register,
// i.e. whether it is an inject-on-write candidate.
func (in *Instr) HasDst() bool { return in.Dst != NoReg }

// RegReads appends the register operands read by the instruction to dst and
// returns it. The order is stable (A, B, C, Args...). Each entry is an
// inject-on-read candidate slot.
func (in *Instr) RegReads(dst []Reg) []Reg {
	if in.A.IsReg() {
		dst = append(dst, in.A.reg)
	}
	if in.B.IsReg() {
		dst = append(dst, in.B.reg)
	}
	if in.C.IsReg() {
		dst = append(dst, in.C.reg)
	}
	for _, a := range in.Args {
		if a.IsReg() {
			dst = append(dst, a.reg)
		}
	}
	return dst
}

// NumRegReads returns the number of register operands the instruction reads.
func (in *Instr) NumRegReads() int {
	n := 0
	if in.A.IsReg() {
		n++
	}
	if in.B.IsReg() {
		n++
	}
	if in.C.IsReg() {
		n++
	}
	for _, a := range in.Args {
		if a.IsReg() {
			n++
		}
	}
	return n
}

// ReadSlot returns a pointer to the i-th register operand (0-based, in
// RegReads order), so an injector can corrupt the register it names. It
// returns the register id; the caller flips bits in the frame's register
// file. It panics if i is out of range.
func (in *Instr) ReadSlot(i int) Reg {
	if in.A.IsReg() {
		if i == 0 {
			return in.A.reg
		}
		i--
	}
	if in.B.IsReg() {
		if i == 0 {
			return in.B.reg
		}
		i--
	}
	if in.C.IsReg() {
		if i == 0 {
			return in.C.reg
		}
		i--
	}
	for _, a := range in.Args {
		if a.IsReg() {
			if i == 0 {
				return a.reg
			}
			i--
		}
	}
	panic("ir: ReadSlot index out of range")
}

// Func is a function: a flat instruction sequence with PC-based branches.
// Arguments arrive in registers 0..NumArgs-1.
type Func struct {
	Name    string
	NumArgs int
	NumRegs int
	Code    []Instr
}

// Program is a complete executable module.
type Program struct {
	Name    string
	Funcs   []*Func
	Globals []byte // initial image of the global data segment
	Main    int    // index into Funcs of the entry point

	maxNR int    // largest Instr.NR, cached by Validate
	fp    uint64 // Fingerprint, cached by Validate
}

// MaxNR returns the largest register-read count (Instr.NR) of any
// instruction, as cached by the last successful Validate; zero for a
// program that has not been validated. No instruction consumes more
// inject-on-read candidates, so the VM uses it to bound how soon a
// read-slot index can be reached.
func (p *Program) MaxNR() int { return p.maxNR }

// ValidatedFingerprint returns the Fingerprint cached by the last
// successful Validate; zero for a program that has not been validated.
// Like Instr.NR it is only as fresh as that Validate, whereas Fingerprint
// hashes the program as it is now. The VM compares it against its
// compiled kernels' fingerprints on every run without rehashing.
func (p *Program) ValidatedFingerprint() uint64 { return p.fp }

// FuncByName returns the index of the named function, or -1.
func (p *Program) FuncByName(name string) int {
	for i, f := range p.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// StaticInstrs returns the total static instruction count.
func (p *Program) StaticInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

// Validate checks structural invariants: branch targets in range, register
// ids within the frame, calls referencing existing functions with matching
// arity, widths present where required, and a terminated instruction
// stream. It also populates the per-instruction caches the VM relies on
// (Instr.NR, Instr.DW and the dispatch token Instr.Tok) and the
// program-wide MaxNR and fingerprint, so a hand-assembled Program must
// pass through Validate before it is run.
// Programs produced by the builder are validated at Build time.
func (p *Program) Validate() error {
	p.maxNR, p.fp = 0, 0
	if p.Main < 0 || p.Main >= len(p.Funcs) {
		return fmt.Errorf("ir: main index %d out of range (%d funcs)", p.Main, len(p.Funcs))
	}
	maxNR := 0
	for fi, f := range p.Funcs {
		if err := p.validateFunc(f); err != nil {
			return fmt.Errorf("ir: func %d (%s): %w", fi, f.Name, err)
		}
		for pc := range f.Code {
			maxNR = max(maxNR, int(f.Code[pc].NR))
		}
	}
	p.maxNR = maxNR
	p.fp = p.Fingerprint()
	return nil
}

func (p *Program) validateFunc(f *Func) error {
	if f.NumArgs > f.NumRegs {
		return fmt.Errorf("%d args but only %d regs", f.NumArgs, f.NumRegs)
	}
	if len(f.Code) == 0 {
		return fmt.Errorf("empty body")
	}
	checkOperand := func(pc int, o Operand) error {
		if o.IsReg() && int(o.reg) >= f.NumRegs {
			return fmt.Errorf("pc %d: register r%d out of range (%d regs)", pc, o.reg, f.NumRegs)
		}
		return nil
	}
	for pc := range f.Code {
		in := &f.Code[pc]
		nr := in.NumRegReads()
		if nr > 255 {
			// NR is a uint8 cache; a wider count would silently truncate
			// the VM's candidate accounting.
			return fmt.Errorf("pc %d: %d register-read operands exceed the limit of 255", pc, nr)
		}
		in.NR = uint8(nr)
		in.DW = 0
		if in.Dst != NoReg && in.Op != OpCall {
			in.DW = 1
		}
		in.Tok = tokenOf(in)
		if in.Dst != NoReg && int(in.Dst) >= f.NumRegs {
			return fmt.Errorf("pc %d: dst r%d out of range (%d regs)", pc, in.Dst, f.NumRegs)
		}
		for _, o := range []Operand{in.A, in.B, in.C} {
			if err := checkOperand(pc, o); err != nil {
				return err
			}
		}
		for _, o := range in.Args {
			if err := checkOperand(pc, o); err != nil {
				return err
			}
		}
		switch in.Op {
		case OpBr, OpCondBr:
			if in.Off < 0 || in.Off >= int64(len(f.Code)) {
				return fmt.Errorf("pc %d: branch target %d out of range", pc, in.Off)
			}
		case OpCall:
			if in.Off < 0 || in.Off >= int64(len(p.Funcs)) {
				return fmt.Errorf("pc %d: call target %d out of range", pc, in.Off)
			}
			callee := p.Funcs[in.Off]
			if len(in.Args) != callee.NumArgs {
				return fmt.Errorf("pc %d: call %s with %d args, want %d",
					pc, callee.Name, len(in.Args), callee.NumArgs)
			}
		case OpAlloca:
			if in.Off <= 0 {
				return fmt.Errorf("pc %d: alloca size %d must be positive", pc, in.Off)
			}
		case OpLoad, OpStore, OpOut, OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI,
			OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem,
			OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr,
			OpICmpEQ, OpICmpNE, OpICmpULT, OpICmpULE, OpICmpSLT, OpICmpSLE:
			// W1 has a bit count but no byte size: it describes injection
			// widths only.
			if in.W < W8 || in.W > W64 {
				return fmt.Errorf("pc %d: %s requires width i8, i16, i32 or i64, got %s", pc, in.Op, in.W)
			}
		}
	}
	last := f.Code[len(f.Code)-1]
	if last.Op != OpRet && last.Op != OpBr && last.Op != OpAbort {
		return fmt.Errorf("function does not end in ret/br/abort (got %s)", last.Op)
	}
	return nil
}
