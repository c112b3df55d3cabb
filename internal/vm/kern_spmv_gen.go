// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "spmv" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

import (
	"math"
)

func init() {
	registerKernel("spmv", 0xfa9e175de2196fc7, []kernFn{kernSpmvF0, kernSpmvF1})
}

// kernSpmvF0 compiles IR function 0 (main): 14 instructions, 6 blocks.
func kernSpmvF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 7 {
		return kernBail
	}
	regs := fr.regs[:7:7]
	_ = regs
	dyn, readSlots, writes := m.dyn, m.readSlots, m.writes
	switch fr.pc {
	case 0:
		goto B0
	case 1:
		goto B1
	case 2:
		goto B2
	case 3:
		goto B3
	case 4:
		goto S4
	case 5:
		goto S5
	case 6:
		goto B6
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
		goto B13
	default:
		return kernBail
	}
B0:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 0
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B1:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 1
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B2:
	{
		if lim-dyn < 1 {
			goto S2
		}
		regs[0] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B3
	}
S2:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 2
			return kernHorizon
		}
		dyn++
		regs[0] = uint64(0x0)
		writes++
		goto B3
	}
B3:
	{
		if lim-dyn < 3 {
			goto S3
		}
		regs[1] = boolBit(int64(int32(regs[0])) < int64(64))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B13
		}
		goto B6
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(64))
		writes++
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
		regs[2] = boolBit(regs[1] == uint64(0x0))
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
		if regs[2] != 0 {
			goto B13
		}
		goto B6
	}
B6:
	{
		if lim-dyn < 7 {
			goto S6
		}
		regs[3] = regs[0] * uint64(0x8)
		regs[4] = uint64(0x100013c0) + regs[3]
		v8, ok8 := m.flatLoad64(regs[4])
		if !ok8 {
			var t8 TrapKind
			if v8, t8 = m.load(regs[4], 8); t8 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t8)
				return kernHalt
			}
		}
		regs[5] = v8
		if !m.outAppend(regs[5], 8) {
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
			fr.pc = 10
			return kernEvent
		}
		regs[6] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[6]
		dyn += 7
		readSlots += 6
		writes += 5
		goto B3
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
		regs[3] = regs[0] * uint64(0x8)
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
		regs[4] = uint64(0x100013c0) + regs[3]
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
		v8, ok8 := m.flatLoad64(regs[4])
		if !ok8 {
			var t8 TrapKind
			if v8, t8 = m.load(regs[4], 8); t8 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t8)
				return kernHalt
			}
		}
		regs[5] = v8
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
		if !m.outAppend(regs[5], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 10
			return kernEvent
		}
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
		regs[6] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		readSlots += 1
		regs[0] = regs[6]
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
		goto B3
	}
B13:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 13
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}

// kernSpmvF1 compiles IR function 1 (spmv): 38 instructions, 7 blocks.
func kernSpmvF1(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 31 {
		return kernBail
	}
	regs := fr.regs[:31:31]
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
		goto B13
	case 14:
		goto S14
	case 15:
		goto S15
	case 16:
		goto B16
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
		goto S22
	case 23:
		goto S23
	case 24:
		goto S24
	case 25:
		goto S25
	case 26:
		goto S26
	case 27:
		goto S27
	case 28:
		goto S28
	case 29:
		goto S29
	case 30:
		goto S30
	case 31:
		goto B31
	case 32:
		goto S32
	case 33:
		goto S33
	case 34:
		goto S34
	case 35:
		goto S35
	case 36:
		goto S36
	case 37:
		goto B37
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 1 {
			goto S0
		}
		regs[2] = uint64(0x0)
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
		regs[2] = uint64(0x0)
		writes++
		goto B1
	}
B1:
	{
		if lim-dyn < 3 {
			goto S1
		}
		regs[3] = boolBit(int64(int32(regs[2])) < int64(64))
		regs[4] = boolBit(regs[3] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[4] != 0 {
			goto B37
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
		regs[3] = boolBit(int64(int32(regs[2])) < int64(64))
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
		regs[4] = boolBit(regs[3] == uint64(0x0))
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
		if regs[4] != 0 {
			goto B37
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 9 {
			goto S4
		}
		regs[5] = uint64(0x0)
		regs[6] = regs[2] * uint64(0x4)
		regs[7] = uint64(0x10000000) + regs[6]
		v7, ok7 := m.flatLoad32(regs[7])
		if !ok7 {
			var t7 TrapKind
			if v7, t7 = m.load(regs[7], 4); t7 != TrapNone {
				dyn += 4
				readSlots += 3
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t7)
				return kernHalt
			}
		}
		regs[8] = v7
		regs[9] = (regs[2] + uint64(0x1)) & 0xffffffff
		regs[10] = regs[9] * uint64(0x4)
		regs[11] = uint64(0x10000000) + regs[10]
		v11, ok11 := m.flatLoad32(regs[11])
		if !ok11 {
			var t11 TrapKind
			if v11, t11 = m.load(regs[11], 4); t11 != TrapNone {
				dyn += 8
				readSlots += 7
				writes += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t11)
				return kernHalt
			}
		}
		regs[12] = v11
		regs[13] = regs[8]
		dyn += 9
		readSlots += 8
		writes += 9
		goto B13
	}
S4:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 4
			return kernHorizon
		}
		dyn++
		regs[5] = uint64(0x0)
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
		regs[6] = regs[2] * uint64(0x4)
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
		regs[7] = uint64(0x10000000) + regs[6]
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
		v7, ok7 := m.flatLoad32(regs[7])
		if !ok7 {
			var t7 TrapKind
			if v7, t7 = m.load(regs[7], 4); t7 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t7)
				return kernHalt
			}
		}
		regs[8] = v7
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
		regs[9] = (regs[2] + uint64(0x1)) & 0xffffffff
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
		regs[10] = regs[9] * uint64(0x4)
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
		regs[11] = uint64(0x10000000) + regs[10]
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
		readSlots += 1
		v11, ok11 := m.flatLoad32(regs[11])
		if !ok11 {
			var t11 TrapKind
			if v11, t11 = m.load(regs[11], 4); t11 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t11)
				return kernHalt
			}
		}
		regs[12] = v11
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
		regs[13] = regs[8]
		writes++
		goto B13
	}
B13:
	{
		if lim-dyn < 3 {
			goto S13
		}
		regs[14] = boolBit(int64(int32(regs[13])) < int64(int32(regs[12])))
		regs[15] = boolBit(regs[14] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[15] != 0 {
			goto B31
		}
		goto B16
	}
S13:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 13
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[14] = boolBit(int64(int32(regs[13])) < int64(int32(regs[12])))
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
		regs[15] = boolBit(regs[14] == uint64(0x0))
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
		if regs[15] != 0 {
			goto B31
		}
		goto B16
	}
B16:
	{
		if lim-dyn < 15 {
			goto S16
		}
		regs[16] = regs[13] * uint64(0x4)
		regs[17] = uint64(0x10000108) + regs[16]
		v18, ok18 := m.flatLoad32(regs[17])
		if !ok18 {
			var t18 TrapKind
			if v18, t18 = m.load(regs[17], 4); t18 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t18)
				return kernHalt
			}
		}
		regs[18] = v18
		regs[19] = regs[13] * uint64(0x8)
		regs[20] = uint64(0x100005f0) + regs[19]
		v21, ok21 := m.flatLoad64(regs[20])
		if !ok21 {
			var t21 TrapKind
			if v21, t21 = m.load(regs[20], 8); t21 != TrapNone {
				dyn += 6
				readSlots += 6
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t21)
				return kernHalt
			}
		}
		regs[21] = v21
		regs[22] = regs[18] * uint64(0x8)
		regs[23] = regs[0] + regs[22]
		v24, ok24 := m.flatLoad64(regs[23])
		if !ok24 {
			var t24 TrapKind
			if v24, t24 = m.load(regs[23], 8); t24 != TrapNone {
				dyn += 9
				readSlots += 10
				writes += 8
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
		}
		regs[24] = v24
		regs[25] = math.Float64bits(math.Float64frombits(regs[21]) * math.Float64frombits(regs[24]))
		regs[26] = math.Float64bits(math.Float64frombits(regs[5]) + math.Float64frombits(regs[25]))
		regs[5] = regs[26]
		regs[27] = (regs[13] + uint64(0x1)) & 0xffffffff
		regs[13] = regs[27]
		dyn += 15
		readSlots += 17
		writes += 14
		goto B13
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
		regs[16] = regs[13] * uint64(0x4)
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
		readSlots += 1
		regs[17] = uint64(0x10000108) + regs[16]
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
		readSlots += 1
		v18, ok18 := m.flatLoad32(regs[17])
		if !ok18 {
			var t18 TrapKind
			if v18, t18 = m.load(regs[17], 4); t18 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t18)
				return kernHalt
			}
		}
		regs[18] = v18
		writes++
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
		regs[19] = regs[13] * uint64(0x8)
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
		regs[20] = uint64(0x100005f0) + regs[19]
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
		readSlots += 1
		v21, ok21 := m.flatLoad64(regs[20])
		if !ok21 {
			var t21 TrapKind
			if v21, t21 = m.load(regs[20], 8); t21 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t21)
				return kernHalt
			}
		}
		regs[21] = v21
		writes++
	}
S22:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 22
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[22] = regs[18] * uint64(0x8)
		writes++
	}
S23:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 23
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[23] = regs[0] + regs[22]
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
		v24, ok24 := m.flatLoad64(regs[23])
		if !ok24 {
			var t24 TrapKind
			if v24, t24 = m.load(regs[23], 8); t24 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
		}
		regs[24] = v24
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
		readSlots += 2
		regs[25] = math.Float64bits(math.Float64frombits(regs[21]) * math.Float64frombits(regs[24]))
		writes++
	}
S26:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 26
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[26] = math.Float64bits(math.Float64frombits(regs[5]) + math.Float64frombits(regs[25]))
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
		regs[5] = regs[26]
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
		regs[27] = (regs[13] + uint64(0x1)) & 0xffffffff
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
		regs[13] = regs[27]
		writes++
	}
S30:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 30
			return kernHorizon
		}
		dyn++
		goto B13
	}
B31:
	{
		if lim-dyn < 6 {
			goto S31
		}
		regs[28] = regs[2] * uint64(0x8)
		regs[29] = regs[1] + regs[28]
		if !m.flatStore64(regs[29], uint64(regs[5])) {
			if t33 := m.store(regs[29], 8, regs[5]); t33 != TrapNone {
				dyn += 3
				readSlots += 5
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t33)
				return kernHalt
			}
		}
		regs[30] = (regs[2] + uint64(0x1)) & 0xffffffff
		regs[2] = regs[30]
		dyn += 6
		readSlots += 7
		writes += 4
		goto B1
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
		regs[28] = regs[2] * uint64(0x8)
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
		readSlots += 2
		regs[29] = regs[1] + regs[28]
		writes++
	}
S33:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 33
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore64(regs[29], uint64(regs[5])) {
			if t33 := m.store(regs[29], 8, regs[5]); t33 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t33)
				return kernHalt
			}
		}
	}
S34:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 34
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[30] = (regs[2] + uint64(0x1)) & 0xffffffff
		writes++
	}
S35:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 35
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[2] = regs[30]
		writes++
	}
S36:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 36
			return kernHorizon
		}
		dyn++
		goto B1
	}
B37:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 37
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
