package ir

// Region extraction and semantic fingerprinting: the program-side half of
// the compiled fast tier.
//
// The ahead-of-time kernel generator (internal/proggen) partitions every
// function into single-entry straight-line regions — basic blocks — and
// emits one batched native code path per block plus a stepwise path that
// can stop at any instruction boundary (the VM's event horizons land
// between arbitrary instructions). The VM trusts a generated kernel only
// when the program it was generated from is semantically identical to the
// program being run, which Fingerprint decides.

// BlockLeaders returns the sorted set of basic-block leader pcs of f: pc 0,
// every branch target, and every pc following a block terminator. Calls and
// returns terminate blocks — the VM's compiled tier leaves frame
// manipulation to the interpreter, so the pc after a call must be
// re-enterable — as do aborts (their successors are unreachable but may
// exist and must still head their own region).
//
// Every Br/CondBr target of a validated function is itself a leader, so a
// generated kernel can jump block-to-block without ever entering a block
// mid-body.
func BlockLeaders(f *Func) []int {
	lead := make([]bool, len(f.Code))
	if len(f.Code) > 0 {
		lead[0] = true
	}
	for pc := range f.Code {
		in := &f.Code[pc]
		switch in.Op {
		case OpBr, OpCondBr:
			lead[in.Off] = true
			if pc+1 < len(f.Code) {
				lead[pc+1] = true
			}
		case OpCall, OpRet, OpAbort:
			if pc+1 < len(f.Code) {
				lead[pc+1] = true
			}
		}
	}
	var out []int
	for pc, l := range lead {
		if l {
			out = append(out, pc)
		}
	}
	return out
}

// fingerprint mixing: FNV-1a over a canonical byte serialization, with
// a shift-xor diffusion round per word (a difference in a word's high
// half also reaches its low half) so structurally close programs do not
// collide in the low bits.
const (
	fpOffset = 14695981039346656037
	fpPrime  = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	v ^= v >> 33
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fpPrime
		v >>= 8
	}
	return h
}

func fpMixBytes(h uint64, b []byte) uint64 {
	h = fpMix(h, uint64(len(b)))
	for _, c := range b {
		h ^= uint64(c)
		h *= fpPrime
	}
	return h
}

func fpMixOperand(h uint64, o Operand) uint64 {
	switch {
	case o.IsNone():
		return fpMix(h, 1)
	case o.IsImm():
		return fpMix(fpMix(h, 2), o.Imm())
	default:
		return fpMix(fpMix(h, 3), uint64(o.Reg()))
	}
}

// Fingerprint returns a semantic hash of the program: the function bodies
// (opcode, width, destination, operand kinds and payloads, offsets and
// call arguments), the entry point, and the initial global image. Two
// programs with equal fingerprints execute identically instruction for
// instruction.
//
// The compiled-kernel registry (internal/vm, generated by
// internal/proggen) is keyed by program name and guarded by this
// fingerprint: a kernel generated from a stale IR silently fails the
// comparison and the VM falls back to the interpreter, while the
// committed-manifest drift test in internal/prog turns the same mismatch
// into a loud regeneration reminder.
//
// Only semantic content is hashed — the caches Validate populates (NR, DW,
// Tok, MaxNR, ValidatedFingerprint) and function names are derived or
// cosmetic and excluded — so the fingerprint is stable across validation
// and across renames that do not change behaviour. Fingerprint always
// hashes the program as it is now; ValidatedFingerprint is the cheap
// cached copy.
func (p *Program) Fingerprint() uint64 {
	h := uint64(fpOffset)
	h = fpMix(h, uint64(p.Main))
	h = fpMix(h, uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		h = fpMix(h, uint64(f.NumArgs))
		h = fpMix(h, uint64(f.NumRegs))
		h = fpMix(h, uint64(len(f.Code)))
		for pc := range f.Code {
			in := &f.Code[pc]
			h = fpMix(h, uint64(in.Op))
			h = fpMix(h, uint64(in.W))
			h = fpMix(h, uint64(in.Dst))
			h = fpMixOperand(h, in.A)
			h = fpMixOperand(h, in.B)
			h = fpMixOperand(h, in.C)
			h = fpMix(h, uint64(in.Off))
			h = fpMix(h, uint64(len(in.Args)))
			for _, a := range in.Args {
				h = fpMixOperand(h, a)
			}
		}
	}
	h = fpMixBytes(h, p.Globals)
	return h
}
