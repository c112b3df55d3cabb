package vm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"multiflip/internal/ir"
)

// flatLoad and flatStore pick the flat accessor for size bytes.
func flatLoad(m *machine, addr uint64, size int) (uint64, bool) {
	switch size {
	case 1:
		return m.flatLoad8(addr)
	case 2:
		return m.flatLoad16(addr)
	case 4:
		return m.flatLoad32(addr)
	}
	return m.flatLoad64(addr)
}

func flatStore(m *machine, addr uint64, size int, v uint64) bool {
	switch size {
	case 1:
		return m.flatStore8(addr, uint8(v))
	case 2:
		return m.flatStore16(addr, uint16(v))
	case 4:
		return m.flatStore32(addr, uint32(v))
	}
	return m.flatStore64(addr, v)
}

// cloneMem deep-copies a segment's mutable state.
func cloneMem(s mem) mem {
	s.flat = slices.Clone(s.flat)
	s.dirty = slices.Clone(s.dirty)
	return s
}

func cloneSpace(m *machine) *machine {
	return &machine{
		globals: cloneMem(m.globals),
		stack:   cloneMem(m.stack),
		sp:      m.sp,
		stackHW: m.stackHW,
		noAlign: m.noAlign,
	}
}

// pattern returns n bytes that vary with their offset, so a load at the
// wrong offset or width reads a different value.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

// TestFlatAccessorsMatchLoadStore holds each flat accessor plus its
// fallback to machine.load and machine.store, over both segments, every
// size, the addresses around each segment's ends and the stack's sp
// after a frame pop, aligned and misaligned, with the alignment trap on
// and off, and with dirty tracking off, on a clean page and on a dirty
// page. The value, trap and whole segment state must
// match, and the fast path must serve exactly the aligned in-range
// accesses to the globals that need no tracking work, so the comparison
// is not vacuous; stack accesses are left to the fallback.
func TestFlatAccessorsMatchLoadStore(t *testing.T) {
	const (
		sp      = 512
		stackHW = sp + 256 // a popped frame left bytes above sp
		stored  = 0x8877665544332211
	)
	fired := 0
	for _, gn := range []int{1000, 1003} {
		for _, tracking := range []string{"off", "clean", "dirty"} {
			gimg, simg := pattern(gn, 3), pattern(stackHW, 5)
			base := &machine{
				globals: flatMem(gn, gimg),
				stack:   flatMem(ir.StackSize, simg),
				sp:      sp,
				stackHW: stackHW,
			}
			if tracking != "off" {
				base.globals.track(nil)
				base.stack.track(nil)
			}
			for _, size := range []int{1, 2, 4, 8} {
				segs := []struct {
					base     uint64
					lim      int
					interior []int
				}{
					{ir.GlobalBase, gn, []int{0, 1, 3, 8, 256 - size, 256, 257, 520}},
					{ir.StackBase, sp, []int{0, 1, 3, 8, 256 - size, 256, 257, 264, sp + size, stackHW - size}},
				}
				for _, sg := range segs {
					offs := append([]int{sg.lim - size, sg.lim - size + 1, sg.lim, -size, -1}, sg.interior...)
					for _, off := range offs {
						addr := sg.base + uint64(int64(off))
						inRange := off >= 0 && off+size <= sg.lim
						aligned := addr%uint64(size) == 0
						for _, noAlign := range []bool{false, true} {
							for _, store := range []bool{false, true} {
								m := cloneSpace(base)
								m.noAlign = noAlign
								if tracking == "dirty" && inRange {
									// Store the byte already there, so only the
									// page's tracking state changes.
									s, o, _ := m.resolve(addr, 1)
									s.store(o, 1, s.load(o, 1))
								}
								ref := cloneSpace(m)
								name := fmt.Sprintf("globals=%d tracking=%s size=%d seg=%#x off=%d noAlign=%v store=%v",
									gn, tracking, size, sg.base, off, noAlign, store)

								var got, want uint64
								var gotTrap, wantTrap TrapKind
								var ok bool
								if store {
									if ok = flatStore(m, addr, size, stored); !ok {
										gotTrap = m.store(addr, size, stored)
									}
									wantTrap = ref.store(addr, size, stored)
								} else {
									if got, ok = flatLoad(m, addr, size); !ok {
										got, gotTrap = m.load(addr, size)
									}
									want, wantTrap = ref.load(addr, size)
								}
								if got != want || gotTrap != wantTrap {
									t.Fatalf("%s: accessor gave %#x/%v, machine gave %#x/%v", name, got, gotTrap, want, wantTrap)
								}
								if !reflect.DeepEqual(m.globals, ref.globals) || !reflect.DeepEqual(m.stack, ref.stack) {
									t.Fatalf("%s: segment state differs from machine.load/store's", name)
								}
								fast := sg.base == ir.GlobalBase && inRange && aligned &&
									(!store || tracking != "clean")
								if ok != fast {
									t.Fatalf("%s: fast path served=%v, want %v", name, ok, fast)
								}
								if ok {
									fired++
								}
							}
						}
					}
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("the fast path never fired")
	}
}
