package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"multiflip/internal/ir"
)

// buildStrideProg builds a program over a zeroed global array of words
// 64-bit words (words must be a power of two). Each of loops iterations
// stores to word (i*stride)&(words-1) and folds a load back into an
// accumulator that is emitted at the end. stride = 0 keeps every write in
// word 0 (one dirty page per checkpoint interval); an odd stride sweeps
// the whole segment. The instruction count per iteration is independent
// of stride, so run lengths are comparable.
func buildStrideProg(words, loops, stride int) *ir.Program {
	mb := ir.NewModule(fmt.Sprintf("stride-%d-%d-%d", words, loops, stride))
	base := mb.GlobalZero(8 * words)
	f := mb.Func("main", 0)
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(uint64(loops)), func(i ir.Reg) {
		w := f.BinW(ir.W64, ir.OpAnd, f.BinW(ir.W64, ir.OpMul, i, ir.C(uint64(stride))), ir.C(uint64(words-1)))
		addr := f.BinW(ir.W64, ir.OpAdd, ir.C(base), f.BinW(ir.W64, ir.OpMul, w, ir.C(8)))
		f.Store64(addr, f.BinW(ir.W64, ir.OpAdd, i, ir.C(0x9e3779b9)), 0)
		f.Mov(acc, f.BinW(ir.W64, ir.OpXor, acc, f.Load64(addr, 0)))
	})
	f.Out64(acc)
	f.RetVoid()
	return mb.MustBuild()
}

// TestSnapshotPageSharingChain pins the page-sharing capture contract:
// each snapshot's delta holds exactly the pages dirtied in its interval
// (at most the one data page here, since all writes stay in one word),
// and the materialized tables share every clean page with the
// predecessor's table.
func TestSnapshotPageSharingChain(t *testing.T) {
	p := buildStrideProg(1<<13, 4000, 0) // 64 KiB of globals, writes in word 0 only
	ckpt, err := Run(p, Options{Checkpoint: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt.Snapshots) < 4 {
		t.Fatalf("only %d snapshots", len(ckpt.Snapshots))
	}
	for k := 1; k < len(ckpt.Snapshots); k++ {
		prev, cur := ckpt.Snapshots[k-1], ckpt.Snapshots[k]
		if got := len(cur.globalDelta.idx); got > 1 {
			t.Errorf("snapshot %d: delta holds %d pages, want <= 1 (writes stay in one page)", k, got)
		}
		prevTbl, _ := prev.tables()
		curTbl, _ := cur.tables()
		if len(curTbl) != numPages(cur.globalLen) {
			t.Fatalf("snapshot %d: %d pages for %d bytes", k, len(curTbl), cur.globalLen)
		}
		copied := 0
		for i := range curTbl {
			if !samePage(prevTbl[i], curTbl[i]) {
				copied++
			}
		}
		if copied > 1 {
			t.Errorf("snapshot %d: %d table pages copied, want <= 1", k, copied)
		}
	}
}

// TestSnapshotFirstCaptureSharesImage checks that a first capture shares
// every untouched page with the program's immutable global image instead
// of copying it.
func TestSnapshotFirstCaptureSharesImage(t *testing.T) {
	p := buildStrideProg(1<<13, 100, 0)
	ckpt, err := Run(p, Options{Checkpoint: 50})
	if err != nil {
		t.Fatal(err)
	}
	img := pageTable(p.Globals)
	firstTbl, _ := ckpt.Snapshots[0].tables()
	shared := 0
	for i := range firstTbl {
		if samePage(img[i], firstTbl[i]) {
			shared++
		}
	}
	if want := len(img) - 1; shared < want {
		t.Errorf("first capture shares %d/%d image pages, want >= %d", shared, len(img), want)
	}
}

// TestSnapshotCaptureCostScalesWithDirt compares the copied-page totals of
// a write-local and a write-everywhere run over the same segment size and
// instruction count: the capture work (copied pages) must track the write
// set, not the segment size.
func TestSnapshotCaptureCostScalesWithDirt(t *testing.T) {
	copiedPages := func(stride int) int {
		p := buildStrideProg(1<<13, 4000, stride)
		ckpt, err := Run(p, Options{Checkpoint: 500, MaxSnapshots: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		copied := 0
		for _, s := range ckpt.Snapshots {
			copied += len(s.globalDelta.idx)
		}
		return copied
	}
	local, spread := copiedPages(0), copiedPages(37)
	if local*8 > spread {
		t.Errorf("local writes copied %d pages vs %d for spread writes; want far fewer", local, spread)
	}
}

// TestSnapshotResumeLargeGlobals resumes a run with 64 KiB of globals,
// written all over. The result must match the straight run, the
// snapshot must survive unmodified for a second resume, and the restored
// globals must be flat: the kernels' accessors serve an aligned access
// to them, as they do for a fresh run.
func TestSnapshotResumeLargeGlobals(t *testing.T) {
	const words = 1 << 13
	p := buildStrideProg(words, 4000, 37)
	straight, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := Run(p, Options{Checkpoint: 1000})
	if err != nil {
		t.Fatal(err)
	}
	snap := ckpt.Snapshots[len(ckpt.Snapshots)/2]
	snapTbl, _ := snap.tables()
	before := make([][]byte, len(snapTbl))
	for i, pg := range snapTbl {
		before[i] = append([]byte(nil), pg...)
	}
	for trial := 0; trial < 2; trial++ {
		res, err := Run(p, Options{Resume: snap})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("resume trial %d", trial), res, straight)
		for i, pg := range snapTbl {
			if !bytes.Equal(before[i], pg) {
				t.Fatalf("trial %d corrupted snapshot page %d", trial, i)
			}
		}
	}

	m := &machine{prog: p}
	if err := m.restore(snap); err != nil {
		t.Fatal(err)
	}
	last := uint64(ir.GlobalBase + 8*(words-1))
	want := binary.LittleEndian.Uint64(snapTbl[len(snapTbl)-1][pageSize-8:])
	if v, ok := m.flatLoad64(last); !ok || v != want {
		t.Fatalf("flatLoad64 on restored globals = %#x, %v; want %#x, true", v, ok, want)
	}
	if !m.flatStore64(last, ^want) {
		t.Fatal("flatStore64 on restored globals was not served")
	}
	if v, _ := m.load(last, 8); v != ^want {
		t.Fatalf("load after flatStore64 = %#x, want %#x", v, ^want)
	}
	if !bytes.Equal(before[len(before)-1], snapTbl[len(snapTbl)-1]) {
		t.Fatal("a store to the restored globals reached the snapshot page")
	}
}

// TestSnapshotResumeLargeStack resumes a run whose 16 KiB stack frame is
// written sparsely, with stale bytes beyond the live pointer preserved.
func TestSnapshotResumeLargeStack(t *testing.T) {
	const bufWords = 1 << 11 // a 16 KiB alloca
	mb := ir.NewModule("big-stack")
	f := mb.Func("main", 0)
	buf := f.Alloca(8 * bufWords)
	f.For(ir.C(0), ir.C(400), func(i ir.Reg) {
		w := f.BinW(ir.W64, ir.OpAnd, f.BinW(ir.W64, ir.OpMul, i, ir.C(571)), ir.C(bufWords-1))
		addr := f.BinW(ir.W64, ir.OpAdd, buf, f.BinW(ir.W64, ir.OpMul, w, ir.C(8)))
		f.Store64(addr, f.BinW(ir.W64, ir.OpMul, i, i), 0)
	})
	acc := f.Let(ir.C(0))
	f.For(ir.C(0), ir.C(bufWords), func(i ir.Reg) {
		addr := f.BinW(ir.W64, ir.OpAdd, buf, f.BinW(ir.W64, ir.OpMul, i, ir.C(8)))
		f.Mov(acc, f.BinW(ir.W64, ir.OpXor, acc, f.Load64(addr, 0)))
	})
	f.Out64(acc)
	f.RetVoid()
	p := mb.MustBuild()

	straight, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := Run(p, Options{Checkpoint: 300})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "checkpointing run", ckpt, straight)
	for _, idx := range []int{0, len(ckpt.Snapshots) / 2, len(ckpt.Snapshots) - 1} {
		snap := ckpt.Snapshots[idx]
		res, err := Run(p, Options{Resume: snap})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("resume from dyn=%d", snap.Dyn), res, straight)
	}
}

// TestSnapshotOutputViewImmutable pins the zero-copy output capture: a
// snapshot's output view must not change when the checkpointing machine
// keeps appending, and a resumed run must not write into the shared
// backing array.
func TestSnapshotOutputViewImmutable(t *testing.T) {
	mb := ir.NewModule("out-chain")
	f := mb.Func("main", 0)
	f.For(ir.C(0), ir.C(64), func(i ir.Reg) {
		f.Out32(f.BinW(ir.W32, ir.OpMul, i, ir.C(3)))
	})
	f.RetVoid()
	p := mb.MustBuild()

	straight, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := Run(p, Options{Checkpoint: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ckpt.Snapshots {
		if !bytes.Equal(s.out, straight.Output[:len(s.out)]) {
			t.Fatalf("snapshot at dyn=%d: output view diverged from the golden prefix", s.Dyn)
		}
		if cap(s.out) != len(s.out) {
			t.Fatalf("snapshot at dyn=%d: output view has spare capacity %d", s.Dyn, cap(s.out)-len(s.out))
		}
		res, err := Run(p, Options{Resume: s})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("resume from dyn=%d", s.Dyn), res, straight)
		if !bytes.Equal(s.out, straight.Output[:len(s.out)]) {
			t.Fatalf("resumed run mutated snapshot output view at dyn=%d", s.Dyn)
		}
	}
}
