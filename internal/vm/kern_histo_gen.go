// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "histo" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

import (
	"multiflip/internal/ir"
)

func init() {
	registerKernel("histo", 0x860811f1fb9320fa, []kernFn{kernHistoF0})
}

// kernHistoF0 compiles IR function 0 (main): 34 instructions, 7 blocks.
func kernHistoF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 25 {
		return kernBail
	}
	regs := fr.regs[:25:25]
	_ = regs
	dyn, readSlots, writes := m.dyn, m.readSlots, m.writes
	switch fr.pc {
	case 0:
		goto B0
	case 1:
		goto B1
	case 2:
		goto S2
	case 3:
		goto S3
	case 4:
		goto B4
	case 5:
		goto S5
	case 6:
		goto S6
	case 7:
		goto S7
	case 8:
		goto S8
	case 9:
		goto S9
	case 10:
		goto S10
	case 11:
		goto S11
	case 12:
		goto S12
	case 13:
		goto S13
	case 14:
		goto S14
	case 15:
		goto S15
	case 16:
		goto S16
	case 17:
		goto S17
	case 18:
		goto S18
	case 19:
		goto S19
	case 20:
		goto S20
	case 21:
		goto S21
	case 22:
		goto B22
	case 23:
		goto B23
	case 24:
		goto S24
	case 25:
		goto S25
	case 26:
		goto B26
	case 27:
		goto S27
	case 28:
		goto S28
	case 29:
		goto S29
	case 30:
		goto S30
	case 31:
		goto S31
	case 32:
		goto S32
	case 33:
		goto B33
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 1 {
			goto S0
		}
		regs[0] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B1
	}
S0:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 0
			return kernHorizon
		}
		dyn++
		regs[0] = uint64(0x0)
		writes++
		goto B1
	}
B1:
	{
		if lim-dyn < 3 {
			goto S1
		}
		regs[1] = boolBit(int64(int32(regs[0])) < int64(1024))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B22
		}
		goto B4
	}
S1:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 1
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[1] = boolBit(int64(int32(regs[0])) < int64(1024))
		writes++
	}
S2:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 2
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[2] = boolBit(regs[1] == uint64(0x0))
		writes++
	}
S3:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 3
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[2] != 0 {
			goto B22
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 18 {
			goto S4
		}
		regs[3] = regs[0] * uint64(0x4)
		regs[4] = uint64(0x10000000) + regs[3]
		v6, ok6 := m.flatLoad32(regs[4])
		if !ok6 {
			var t6 TrapKind
			if v6, t6 = m.load(regs[4], 4); t6 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[5] = v6
		q7, t7 := intDiv(ir.OpUDiv, ir.W32, (regs[5] & 0xffffffff), uint64(0xc))
		if t7 != TrapNone {
			dyn += 4
			readSlots += 4
			writes += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t7)
			return kernHalt
		}
		regs[6] = (q7) & 0xffffffff
		q8, t8 := intDiv(ir.OpURem, ir.W32, (regs[6] & 0xffffffff), uint64(0x8))
		if t8 != TrapNone {
			dyn += 5
			readSlots += 5
			writes += 4
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t8)
			return kernHalt
		}
		regs[7] = (q8) & 0xffffffff
		q9, t9 := intDiv(ir.OpURem, ir.W32, (regs[5] & 0xffffffff), uint64(0xc))
		if t9 != TrapNone {
			dyn += 6
			readSlots += 6
			writes += 5
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t9)
			return kernHalt
		}
		regs[8] = (q9) & 0xffffffff
		regs[9] = (regs[7] * uint64(0xc)) & 0xffffffff
		regs[10] = (regs[9] + regs[8]) & 0xffffffff
		regs[11] = regs[10] * uint64(0x1)
		regs[12] = uint64(0x10001000) + regs[11]
		v14, ok14 := m.flatLoad8(regs[12])
		if !ok14 {
			var t14 TrapKind
			if v14, t14 = m.load(regs[12], 1); t14 != TrapNone {
				dyn += 11
				readSlots += 12
				writes += 10
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t14)
				return kernHalt
			}
		}
		regs[13] = v14
		regs[14] = (regs[13] + uint64(0x1)) & 0xffffffff
		regs[15] = boolBit((regs[13] & 0xffffffff) < uint64(0xff))
		if regs[15] != 0 {
			regs[16] = regs[14]
		} else {
			regs[16] = uint64(0xff)
		}
		if !m.flatStore8(regs[12], uint8(regs[16])) {
			if t18 := m.store(regs[12], 1, regs[16]); t18 != TrapNone {
				dyn += 15
				readSlots += 18
				writes += 14
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t18)
				return kernHalt
			}
		}
		regs[17] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[17]
		dyn += 18
		readSlots += 20
		writes += 16
		goto B1
	}
S4:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 4
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[3] = regs[0] * uint64(0x4)
		writes++
	}
S5:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 5
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[4] = uint64(0x10000000) + regs[3]
		writes++
	}
S6:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 6
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v6, ok6 := m.flatLoad32(regs[4])
		if !ok6 {
			var t6 TrapKind
			if v6, t6 = m.load(regs[4], 4); t6 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[5] = v6
		writes++
	}
S7:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 7
			return kernHorizon
		}
		dyn++
		readSlots += 1
		q7, t7 := intDiv(ir.OpUDiv, ir.W32, (regs[5] & 0xffffffff), uint64(0xc))
		if t7 != TrapNone {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t7)
			return kernHalt
		}
		regs[6] = (q7) & 0xffffffff
		writes++
	}
S8:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 8
			return kernHorizon
		}
		dyn++
		readSlots += 1
		q8, t8 := intDiv(ir.OpURem, ir.W32, (regs[6] & 0xffffffff), uint64(0x8))
		if t8 != TrapNone {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t8)
			return kernHalt
		}
		regs[7] = (q8) & 0xffffffff
		writes++
	}
S9:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 9
			return kernHorizon
		}
		dyn++
		readSlots += 1
		q9, t9 := intDiv(ir.OpURem, ir.W32, (regs[5] & 0xffffffff), uint64(0xc))
		if t9 != TrapNone {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t9)
			return kernHalt
		}
		regs[8] = (q9) & 0xffffffff
		writes++
	}
S10:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 10
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[9] = (regs[7] * uint64(0xc)) & 0xffffffff
		writes++
	}
S11:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 11
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[10] = (regs[9] + regs[8]) & 0xffffffff
		writes++
	}
S12:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 12
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[11] = regs[10] * uint64(0x1)
		writes++
	}
S13:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 13
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[12] = uint64(0x10001000) + regs[11]
		writes++
	}
S14:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 14
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v14, ok14 := m.flatLoad8(regs[12])
		if !ok14 {
			var t14 TrapKind
			if v14, t14 = m.load(regs[12], 1); t14 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t14)
				return kernHalt
			}
		}
		regs[13] = v14
		writes++
	}
S15:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 15
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[14] = (regs[13] + uint64(0x1)) & 0xffffffff
		writes++
	}
S16:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 16
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[15] = boolBit((regs[13] & 0xffffffff) < uint64(0xff))
		writes++
	}
S17:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 17
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if regs[15] != 0 {
			regs[16] = regs[14]
		} else {
			regs[16] = uint64(0xff)
		}
		writes++
	}
S18:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 18
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore8(regs[12], uint8(regs[16])) {
			if t18 := m.store(regs[12], 1, regs[16]); t18 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t18)
				return kernHalt
			}
		}
	}
S19:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 19
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[17] = (regs[0] + uint64(0x1)) & 0xffffffff
		writes++
	}
S20:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 20
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[0] = regs[17]
		writes++
	}
S21:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 21
			return kernHorizon
		}
		dyn++
		goto B1
	}
B22:
	{
		if lim-dyn < 1 {
			goto S22
		}
		regs[18] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B23
	}
S22:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 22
			return kernHorizon
		}
		dyn++
		regs[18] = uint64(0x0)
		writes++
		goto B23
	}
B23:
	{
		if lim-dyn < 3 {
			goto S23
		}
		regs[19] = boolBit(int64(int32(regs[18])) < int64(96))
		regs[20] = boolBit(regs[19] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[20] != 0 {
			goto B33
		}
		goto B26
	}
S23:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 23
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[19] = boolBit(int64(int32(regs[18])) < int64(96))
		writes++
	}
S24:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 24
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[20] = boolBit(regs[19] == uint64(0x0))
		writes++
	}
S25:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 25
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[20] != 0 {
			goto B33
		}
		goto B26
	}
B26:
	{
		if lim-dyn < 7 {
			goto S26
		}
		regs[21] = regs[18] * uint64(0x1)
		regs[22] = uint64(0x10001000) + regs[21]
		v28, ok28 := m.flatLoad8(regs[22])
		if !ok28 {
			var t28 TrapKind
			if v28, t28 = m.load(regs[22], 1); t28 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t28)
				return kernHalt
			}
		}
		regs[23] = v28
		if !m.outAppend((regs[23] & 0xff), 1) {
			dyn += 4
			readSlots += 4
			writes += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 4
			readSlots += 4
			writes += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 30
			return kernEvent
		}
		regs[24] = (regs[18] + uint64(0x1)) & 0xffffffff
		regs[18] = regs[24]
		dyn += 7
		readSlots += 6
		writes += 5
		goto B23
	}
S26:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 26
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[21] = regs[18] * uint64(0x1)
		writes++
	}
S27:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 27
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[22] = uint64(0x10001000) + regs[21]
		writes++
	}
S28:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 28
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v28, ok28 := m.flatLoad8(regs[22])
		if !ok28 {
			var t28 TrapKind
			if v28, t28 = m.load(regs[22], 1); t28 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t28)
				return kernHalt
			}
		}
		regs[23] = v28
		writes++
	}
S29:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 29
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend((regs[23] & 0xff), 1) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 30
			return kernEvent
		}
	}
S30:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 30
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[24] = (regs[18] + uint64(0x1)) & 0xffffffff
		writes++
	}
S31:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 31
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[18] = regs[24]
		writes++
	}
S32:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 32
			return kernHorizon
		}
		dyn++
		goto B23
	}
B33:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 33
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
