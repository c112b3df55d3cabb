package prog

import (
	"fmt"

	"multiflip/internal/ir"
)

// The megapixel workload: an image-scale synthetic program over 1 MiB of
// global data (2^17 64-bit words ~ a 1024x1024 8-bit image). Pass 1 fills
// the "image" from a cheap PRNG recurrence, pass 2 applies an in-place
// neighbour-mixing filter (a 1-D blur stand-in), and a sparse checksum
// pass emits the output. Stores sweep the whole segment, so golden-run
// capture, snapshot resume and convergence checks all operate at real
// image scale: every resumed experiment copies the full megabyte of
// globals, and every convergence check walks its page table. BenchmarkCampaignLargeGlobals and the study grid target it by
// name ("megapixel").
const (
	// MegapixelWords is the image size in 64-bit words (1 MiB).
	MegapixelWords = 1 << 17
	megaMulPhi     = 0x9e3779b97f4a7c15
)

// buildMegapixel constructs the workload. The build is deterministic and
// input-free: the image content comes from the fill recurrence.
func buildMegapixel() (*ir.Program, error) {
	return buildImageFill("megapixel", MegapixelWords)
}

// buildImageFill emits the fill + neighbour-mix + checksum pipeline over
// words 64-bit global words.
func buildImageFill(name string, words int) (*ir.Program, error) {
	mb := ir.NewModule(fmt.Sprintf("%s-%dKiB", name, words*8/1024))
	base := mb.GlobalZero(8 * words)
	f := mb.Func("main", 0)
	// Pass 1: fill.
	f.For(ir.C(0), ir.C(uint64(words)), func(i ir.Reg) {
		v := f.BinW(ir.W64, ir.OpMul, i, ir.C(megaMulPhi))
		v = f.BinW(ir.W64, ir.OpXor, v, f.BinW(ir.W64, ir.OpLShr, v, ir.C(29)))
		addr := f.BinW(ir.W64, ir.OpAdd, ir.C(base), f.BinW(ir.W64, ir.OpMul, i, ir.C(8)))
		f.Store64(addr, v, 0)
	})
	// Pass 2: neighbour mix, in place and in order (word i-1 is already
	// mixed when word i reads it — the reference reproduces this).
	f.For(ir.C(1), ir.C(uint64(words-1)), func(i ir.Reg) {
		addr := f.BinW(ir.W64, ir.OpAdd, ir.C(base), f.BinW(ir.W64, ir.OpMul, i, ir.C(8)))
		left := f.Load64(addr, -8)
		mid := f.Load64(addr, 0)
		right := f.Load64(addr, 8)
		mixed := f.BinW(ir.W64, ir.OpAdd, f.BinW(ir.W64, ir.OpAdd, left, right), mid)
		f.Store64(addr, mixed, 0)
	})
	// Checksum: sample every 64th word.
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(uint64(words/64)), func(i ir.Reg) {
		addr := f.BinW(ir.W64, ir.OpAdd, ir.C(base), f.BinW(ir.W64, ir.OpMul, i, ir.C(512)))
		f.Mov(acc, f.BinW(ir.W64, ir.OpXor, acc, f.Load64(addr, 0)))
	})
	f.Out64(acc)
	f.RetVoid()
	return mb.Build()
}

// refMegapixel computes the megapixel workload's expected output
// host-side, operation for operation.
func refMegapixel() []byte {
	return refImageFill(MegapixelWords)
}

// refImageFill is the host-side reference for buildImageFill.
func refImageFill(words int) []byte {
	mem := make([]uint64, words)
	for i := range mem {
		v := uint64(i) * megaMulPhi
		v ^= v >> 29
		mem[i] = v
	}
	for i := 1; i < words-1; i++ {
		mem[i] = mem[i-1] + mem[i+1] + mem[i]
	}
	var acc uint64
	for i := 0; i < words/64; i++ {
		acc ^= mem[i*64]
	}
	var out outputBuf
	out.u64(acc)
	return out.bytes
}
