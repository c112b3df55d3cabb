package vm

import (
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
)

// TestDispatchTokensAssigned checks the validation-time dispatch
// metadata over every benchmark program: all instructions carry a real
// token, and the destination-write cache matches the instruction shape.
func TestDispatchTokensAssigned(t *testing.T) {
	for _, bench := range prog.All() {
		p, err := bench.Build()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		for _, f := range p.Funcs {
			for pc := range f.Code {
				in := &f.Code[pc]
				if in.Tok == ir.TokInvalid {
					t.Fatalf("%s %s pc %d: %s has no dispatch token", bench.Name, f.Name, pc, in.Op)
				}
				wantDW := uint8(0)
				if in.Dst != ir.NoReg && in.Op != ir.OpCall {
					wantDW = 1
				}
				if in.DW != wantDW {
					t.Fatalf("%s %s pc %d: %s DW=%d, want %d", bench.Name, f.Name, pc, in.Op, in.DW, wantDW)
				}
			}
		}
	}
}
