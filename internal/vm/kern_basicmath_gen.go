// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "basicmath" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

import (
	"math"
)

func init() {
	registerKernel("basicmath", 0xc67f078b2b11b1c1, []kernFn{kernBasicmathF0, kernBasicmathF1, kernBasicmathF2})
}

// kernBasicmathF0 compiles IR function 0 (main): 42 instructions, 12 blocks.
func kernBasicmathF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 27 {
		return kernBail
	}
	regs := fr.regs[:27:27]
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
		goto B11
	case 12:
		goto S12
	case 13:
		goto S13
	case 14:
		goto B14
	case 15:
		goto B15
	case 16:
		goto S16
	case 17:
		goto S17
	case 18:
		goto B18
	case 19:
		goto S19
	case 20:
		goto S20
	case 21:
		goto S21
	case 22:
		goto B22
	case 23:
		goto S23
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
		goto B29
	case 30:
		goto S30
	case 31:
		goto S31
	case 32:
		goto B32
	case 33:
		goto S33
	case 34:
		goto S34
	case 35:
		goto S35
	case 36:
		goto S36
	case 37:
		goto S37
	case 38:
		goto S38
	case 39:
		goto S39
	case 40:
		goto B40
	case 41:
		goto S41
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(16))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B14
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(16))
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
			goto B14
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 6 {
			goto S4
		}
		regs[3] = (regs[0] * uint64(0x3)) & 0xffffffff
		regs[4] = regs[3] * uint64(0x8)
		regs[5] = uint64(0x10000000) + regs[4]
		v7, ok7 := m.flatLoad64(regs[5])
		if !ok7 {
			var t7 TrapKind
			if v7, t7 = m.load(regs[5], 8); t7 != TrapNone {
				dyn += 4
				readSlots += 4
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t7)
				return kernHalt
			}
		}
		regs[6] = v7
		v8, ok8 := m.flatLoad64(regs[5] + 0x8)
		if !ok8 {
			var t8 TrapKind
			if v8, t8 = m.load(regs[5]+0x8, 8); t8 != TrapNone {
				dyn += 5
				readSlots += 5
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t8)
				return kernHalt
			}
		}
		regs[7] = v8
		v9, ok9 := m.flatLoad64(regs[5] + 0x10)
		if !ok9 {
			var t9 TrapKind
			if v9, t9 = m.load(regs[5]+0x10, 8); t9 != TrapNone {
				dyn += 6
				readSlots += 6
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t9)
				return kernHalt
			}
		}
		regs[8] = v9
		dyn += 6
		readSlots += 6
		writes += 6
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 10
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		regs[3] = (regs[0] * uint64(0x3)) & 0xffffffff
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
		regs[4] = regs[3] * uint64(0x8)
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
		regs[5] = uint64(0x10000000) + regs[4]
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
		v7, ok7 := m.flatLoad64(regs[5])
		if !ok7 {
			var t7 TrapKind
			if v7, t7 = m.load(regs[5], 8); t7 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t7)
				return kernHalt
			}
		}
		regs[6] = v7
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
		v8, ok8 := m.flatLoad64(regs[5] + 0x8)
		if !ok8 {
			var t8 TrapKind
			if v8, t8 = m.load(regs[5]+0x8, 8); t8 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t8)
				return kernHalt
			}
		}
		regs[7] = v8
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
		v9, ok9 := m.flatLoad64(regs[5] + 0x10)
		if !ok9 {
			var t9 TrapKind
			if v9, t9 = m.load(regs[5]+0x10, 8); t9 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t9)
				return kernHalt
			}
		}
		regs[8] = v9
		writes++
	}
S10:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 10
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B11:
	{
		if lim-dyn < 3 {
			goto S11
		}
		regs[9] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[9]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B1
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
		regs[9] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[9]
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
		goto B1
	}
B14:
	{
		if lim-dyn < 1 {
			goto S14
		}
		regs[10] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B15
	}
S14:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 14
			return kernHorizon
		}
		dyn++
		regs[10] = uint64(0x0)
		writes++
		goto B15
	}
B15:
	{
		if lim-dyn < 3 {
			goto S15
		}
		regs[11] = boolBit(int64(int32(regs[10])) < int64(64))
		regs[12] = boolBit(regs[11] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[12] != 0 {
			goto B26
		}
		goto B18
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
		regs[11] = boolBit(int64(int32(regs[10])) < int64(64))
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
		regs[12] = boolBit(regs[11] == uint64(0x0))
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
		if regs[12] != 0 {
			goto B26
		}
		goto B18
	}
B18:
	{
		if lim-dyn < 3 {
			goto S18
		}
		regs[13] = regs[10] * uint64(0x4)
		regs[14] = uint64(0x10000180) + regs[13]
		v20, ok20 := m.flatLoad32(regs[14])
		if !ok20 {
			var t20 TrapKind
			if v20, t20 = m.load(regs[14], 4); t20 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
		regs[15] = v20
		dyn += 3
		readSlots += 3
		writes += 3
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 21
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		regs[13] = regs[10] * uint64(0x4)
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
		regs[14] = uint64(0x10000180) + regs[13]
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
		v20, ok20 := m.flatLoad32(regs[14])
		if !ok20 {
			var t20 TrapKind
			if v20, t20 = m.load(regs[14], 4); t20 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
		regs[15] = v20
		writes++
	}
S21:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 21
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B22:
	{
		if lim-dyn < 4 {
			goto S22
		}
		if !m.outAppend((regs[16] & 0xffffffff), 4) {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 23
			return kernEvent
		}
		regs[17] = (regs[10] + uint64(0x1)) & 0xffffffff
		regs[10] = regs[17]
		dyn += 4
		readSlots += 3
		writes += 2
		goto B15
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
		if !m.outAppend((regs[16] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 23
			return kernEvent
		}
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
		regs[17] = (regs[10] + uint64(0x1)) & 0xffffffff
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
		regs[10] = regs[17]
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
		goto B15
	}
B26:
	{
		if lim-dyn < 3 {
			goto S26
		}
		regs[18] = uint64(0x0)
		regs[19] = uint64(0x0)
		regs[20] = uint64(0x0)
		dyn += 3
		writes += 3
		goto B29
	}
S26:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 26
			return kernHorizon
		}
		dyn++
		regs[18] = uint64(0x0)
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
		regs[19] = uint64(0x0)
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
		regs[20] = uint64(0x0)
		writes++
		goto B29
	}
B29:
	{
		if lim-dyn < 3 {
			goto S29
		}
		regs[21] = boolBit(int64(int32(regs[20])) < int64(180))
		regs[22] = boolBit(regs[21] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[22] != 0 {
			goto B40
		}
		goto B32
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
		regs[21] = boolBit(int64(int32(regs[20])) < int64(180))
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
		readSlots += 1
		regs[22] = boolBit(regs[21] == uint64(0x0))
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
		if regs[22] != 0 {
			goto B40
		}
		goto B32
	}
B32:
	{
		if lim-dyn < 8 {
			goto S32
		}
		regs[23] = math.Float64bits(math.Float64frombits(regs[19]) * math.Float64frombits(uint64(0x3f91df46a2529d39)))
		regs[24] = math.Float64bits(math.Float64frombits(regs[18]) + math.Float64frombits(regs[23]))
		regs[18] = regs[24]
		regs[25] = math.Float64bits(math.Float64frombits(regs[19]) + math.Float64frombits(uint64(0x3ff0000000000000)))
		regs[19] = regs[25]
		regs[26] = (regs[20] + uint64(0x1)) & 0xffffffff
		regs[20] = regs[26]
		dyn += 8
		readSlots += 8
		writes += 7
		goto B29
	}
S32:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 32
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[23] = math.Float64bits(math.Float64frombits(regs[19]) * math.Float64frombits(uint64(0x3f91df46a2529d39)))
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
		regs[24] = math.Float64bits(math.Float64frombits(regs[18]) + math.Float64frombits(regs[23]))
		writes++
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
		regs[18] = regs[24]
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
		regs[25] = math.Float64bits(math.Float64frombits(regs[19]) + math.Float64frombits(uint64(0x3ff0000000000000)))
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
		readSlots += 1
		regs[19] = regs[25]
		writes++
	}
S37:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 37
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[26] = (regs[20] + uint64(0x1)) & 0xffffffff
		writes++
	}
S38:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 38
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[20] = regs[26]
		writes++
	}
S39:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 39
			return kernHorizon
		}
		dyn++
		goto B29
	}
B40:
	{
		if lim-dyn < 1 {
			goto S40
		}
		if !m.outAppend(regs[18], 8) {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 41
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 41
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
S40:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 40
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[18], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 41
			return kernEvent
		}
	}
S41:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 41
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}

// kernBasicmathF1 compiles IR function 1 (solve_cubic): 52 instructions, 7 blocks.
func kernBasicmathF1(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 43 {
		return kernBail
	}
	regs := fr.regs[:43:43]
	_ = regs
	dyn, readSlots, writes := m.dyn, m.readSlots, m.writes
	switch fr.pc {
	case 0:
		goto B0
	case 1:
		goto S1
	case 2:
		goto S2
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
		goto S22
	case 23:
		goto S23
	case 24:
		goto B24
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
		goto S31
	case 32:
		goto S32
	case 33:
		goto S33
	case 34:
		goto B34
	case 35:
		goto S35
	case 36:
		goto S36
	case 37:
		goto S37
	case 38:
		goto S38
	case 39:
		goto S39
	case 40:
		goto S40
	case 41:
		goto S41
	case 42:
		goto S42
	case 43:
		goto S43
	case 44:
		goto B44
	case 45:
		goto S45
	case 46:
		goto S46
	case 47:
		goto S47
	case 48:
		goto S48
	case 49:
		goto S49
	case 50:
		goto S50
	case 51:
		goto B51
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 3 {
			goto S0
		}
		regs[3] = math.Float64bits(math.Float64frombits(uint64(0x3ff0000000000000)) - math.Float64frombits(regs[0]))
		regs[4] = regs[3]
		regs[5] = uint64(0x0)
		dyn += 3
		readSlots += 2
		writes += 3
		goto B3
	}
S0:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 0
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[3] = math.Float64bits(math.Float64frombits(uint64(0x3ff0000000000000)) - math.Float64frombits(regs[0]))
		writes++
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
		regs[4] = regs[3]
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
		regs[5] = uint64(0x0)
		writes++
		goto B3
	}
B3:
	{
		if lim-dyn < 3 {
			goto S3
		}
		regs[6] = boolBit(int64(int32(regs[5])) < int64(24))
		regs[7] = boolBit(regs[6] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[7] != 0 {
			goto B24
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
		regs[6] = boolBit(int64(int32(regs[5])) < int64(24))
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
		regs[7] = boolBit(regs[6] == uint64(0x0))
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
		if regs[7] != 0 {
			goto B24
		}
		goto B6
	}
B6:
	{
		if lim-dyn < 18 {
			goto S6
		}
		regs[8] = math.Float64bits(math.Float64frombits(regs[4]) * math.Float64frombits(regs[4]))
		regs[9] = math.Float64bits(math.Float64frombits(regs[8]) * math.Float64frombits(regs[4]))
		regs[10] = math.Float64bits(math.Float64frombits(regs[0]) * math.Float64frombits(regs[8]))
		regs[11] = math.Float64bits(math.Float64frombits(regs[9]) + math.Float64frombits(regs[10]))
		regs[12] = math.Float64bits(math.Float64frombits(regs[1]) * math.Float64frombits(regs[4]))
		regs[13] = math.Float64bits(math.Float64frombits(regs[12]) + math.Float64frombits(regs[2]))
		regs[14] = math.Float64bits(math.Float64frombits(regs[11]) + math.Float64frombits(regs[13]))
		regs[15] = math.Float64bits(math.Float64frombits(uint64(0x4008000000000000)) * math.Float64frombits(regs[8]))
		regs[16] = math.Float64bits(math.Float64frombits(uint64(0x4000000000000000)) * math.Float64frombits(regs[0]))
		regs[17] = math.Float64bits(math.Float64frombits(regs[16]) * math.Float64frombits(regs[4]))
		regs[18] = math.Float64bits(math.Float64frombits(regs[15]) + math.Float64frombits(regs[17]))
		regs[19] = math.Float64bits(math.Float64frombits(regs[18]) + math.Float64frombits(regs[1]))
		regs[20] = math.Float64bits(math.Float64frombits(regs[14]) / math.Float64frombits(regs[19]))
		regs[21] = math.Float64bits(math.Float64frombits(regs[4]) - math.Float64frombits(regs[20]))
		regs[4] = regs[21]
		regs[22] = (regs[5] + uint64(0x1)) & 0xffffffff
		regs[5] = regs[22]
		dyn += 18
		readSlots += 29
		writes += 17
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
		readSlots += 2
		regs[8] = math.Float64bits(math.Float64frombits(regs[4]) * math.Float64frombits(regs[4]))
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
		readSlots += 2
		regs[9] = math.Float64bits(math.Float64frombits(regs[8]) * math.Float64frombits(regs[4]))
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
		readSlots += 2
		regs[10] = math.Float64bits(math.Float64frombits(regs[0]) * math.Float64frombits(regs[8]))
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
		readSlots += 2
		regs[11] = math.Float64bits(math.Float64frombits(regs[9]) + math.Float64frombits(regs[10]))
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
		readSlots += 2
		regs[12] = math.Float64bits(math.Float64frombits(regs[1]) * math.Float64frombits(regs[4]))
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
		regs[13] = math.Float64bits(math.Float64frombits(regs[12]) + math.Float64frombits(regs[2]))
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
		readSlots += 2
		regs[14] = math.Float64bits(math.Float64frombits(regs[11]) + math.Float64frombits(regs[13]))
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
		regs[15] = math.Float64bits(math.Float64frombits(uint64(0x4008000000000000)) * math.Float64frombits(regs[8]))
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
		regs[16] = math.Float64bits(math.Float64frombits(uint64(0x4000000000000000)) * math.Float64frombits(regs[0]))
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
		readSlots += 2
		regs[17] = math.Float64bits(math.Float64frombits(regs[16]) * math.Float64frombits(regs[4]))
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
		readSlots += 2
		regs[18] = math.Float64bits(math.Float64frombits(regs[15]) + math.Float64frombits(regs[17]))
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
		regs[19] = math.Float64bits(math.Float64frombits(regs[18]) + math.Float64frombits(regs[1]))
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
		regs[20] = math.Float64bits(math.Float64frombits(regs[14]) / math.Float64frombits(regs[19]))
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
		readSlots += 2
		regs[21] = math.Float64bits(math.Float64frombits(regs[4]) - math.Float64frombits(regs[20]))
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
		regs[4] = regs[21]
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
		regs[22] = (regs[5] + uint64(0x1)) & 0xffffffff
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
		regs[5] = regs[22]
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
		goto B3
	}
B24:
	{
		if lim-dyn < 10 {
			goto S24
		}
		if !m.outAppend(regs[4], 8) {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 25
			return kernEvent
		}
		regs[23] = math.Float64bits(math.Float64frombits(regs[0]) + math.Float64frombits(regs[4]))
		regs[24] = math.Float64bits(math.Float64frombits(regs[23]) * math.Float64frombits(regs[4]))
		regs[25] = math.Float64bits(math.Float64frombits(regs[1]) + math.Float64frombits(regs[24]))
		regs[26] = math.Float64bits(math.Float64frombits(regs[23]) * math.Float64frombits(regs[23]))
		regs[27] = math.Float64bits(math.Float64frombits(uint64(0x4010000000000000)) * math.Float64frombits(regs[25]))
		regs[28] = math.Float64bits(math.Float64frombits(regs[26]) - math.Float64frombits(regs[27]))
		regs[29] = boolBit(math.Float64frombits(uint64(0x0)) <= math.Float64frombits(regs[28]))
		regs[30] = boolBit(regs[29] == uint64(0x0))
		dyn += 10
		readSlots += 15
		writes += 8
		if regs[30] != 0 {
			goto B44
		}
		goto B34
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
		if !m.outAppend(regs[4], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 25
			return kernEvent
		}
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
		regs[23] = math.Float64bits(math.Float64frombits(regs[0]) + math.Float64frombits(regs[4]))
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
		regs[24] = math.Float64bits(math.Float64frombits(regs[23]) * math.Float64frombits(regs[4]))
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
		readSlots += 2
		regs[25] = math.Float64bits(math.Float64frombits(regs[1]) + math.Float64frombits(regs[24]))
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
		readSlots += 2
		regs[26] = math.Float64bits(math.Float64frombits(regs[23]) * math.Float64frombits(regs[23]))
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
		regs[27] = math.Float64bits(math.Float64frombits(uint64(0x4010000000000000)) * math.Float64frombits(regs[25]))
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
		readSlots += 2
		regs[28] = math.Float64bits(math.Float64frombits(regs[26]) - math.Float64frombits(regs[27]))
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
		regs[29] = boolBit(math.Float64frombits(uint64(0x0)) <= math.Float64frombits(regs[28]))
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
		readSlots += 1
		regs[30] = boolBit(regs[29] == uint64(0x0))
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
		readSlots += 1
		if regs[30] != 0 {
			goto B44
		}
		goto B34
	}
B34:
	{
		if lim-dyn < 10 {
			goto S34
		}
		regs[31] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[28])))
		regs[32] = math.Float64bits(-math.Float64frombits(regs[23]))
		regs[33] = math.Float64bits(math.Float64frombits(regs[32]) + math.Float64frombits(regs[31]))
		regs[34] = math.Float64bits(math.Float64frombits(regs[33]) / math.Float64frombits(uint64(0x4000000000000000)))
		if !m.outAppend(regs[34], 8) {
			dyn += 5
			readSlots += 6
			writes += 4
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 5
			readSlots += 6
			writes += 4
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 39
			return kernEvent
		}
		regs[35] = math.Float64bits(-math.Float64frombits(regs[23]))
		regs[36] = math.Float64bits(math.Float64frombits(regs[35]) - math.Float64frombits(regs[31]))
		regs[37] = math.Float64bits(math.Float64frombits(regs[36]) / math.Float64frombits(uint64(0x4000000000000000)))
		if !m.outAppend(regs[37], 8) {
			dyn += 9
			readSlots += 11
			writes += 7
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 9
			readSlots += 11
			writes += 7
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 43
			return kernEvent
		}
		dyn += 10
		readSlots += 11
		writes += 7
		goto B51
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
		regs[31] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[28])))
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
		regs[32] = math.Float64bits(-math.Float64frombits(regs[23]))
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
		readSlots += 2
		regs[33] = math.Float64bits(math.Float64frombits(regs[32]) + math.Float64frombits(regs[31]))
		writes++
	}
S37:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 37
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[34] = math.Float64bits(math.Float64frombits(regs[33]) / math.Float64frombits(uint64(0x4000000000000000)))
		writes++
	}
S38:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 38
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[34], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 39
			return kernEvent
		}
	}
S39:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 39
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[35] = math.Float64bits(-math.Float64frombits(regs[23]))
		writes++
	}
S40:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 40
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[36] = math.Float64bits(math.Float64frombits(regs[35]) - math.Float64frombits(regs[31]))
		writes++
	}
S41:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 41
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[37] = math.Float64bits(math.Float64frombits(regs[36]) / math.Float64frombits(uint64(0x4000000000000000)))
		writes++
	}
S42:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 42
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[37], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 43
			return kernEvent
		}
	}
S43:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 43
			return kernHorizon
		}
		dyn++
		goto B51
	}
B44:
	{
		if lim-dyn < 7 {
			goto S44
		}
		regs[38] = math.Float64bits(-math.Float64frombits(regs[23]))
		regs[39] = math.Float64bits(math.Float64frombits(regs[38]) / math.Float64frombits(uint64(0x4000000000000000)))
		if !m.outAppend(regs[39], 8) {
			dyn += 3
			readSlots += 3
			writes += 2
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 3
			readSlots += 3
			writes += 2
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 47
			return kernEvent
		}
		regs[40] = math.Float64bits(-math.Float64frombits(regs[28]))
		regs[41] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[40])))
		regs[42] = math.Float64bits(math.Float64frombits(regs[41]) / math.Float64frombits(uint64(0x4000000000000000)))
		if !m.outAppend(regs[42], 8) {
			dyn += 7
			readSlots += 7
			writes += 5
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 7
			readSlots += 7
			writes += 5
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 51
			return kernEvent
		}
		dyn += 7
		readSlots += 7
		writes += 5
		goto B51
	}
S44:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 44
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[38] = math.Float64bits(-math.Float64frombits(regs[23]))
		writes++
	}
S45:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 45
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[39] = math.Float64bits(math.Float64frombits(regs[38]) / math.Float64frombits(uint64(0x4000000000000000)))
		writes++
	}
S46:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 46
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[39], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 47
			return kernEvent
		}
	}
S47:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 47
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[40] = math.Float64bits(-math.Float64frombits(regs[28]))
		writes++
	}
S48:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 48
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[41] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[40])))
		writes++
	}
S49:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 49
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[42] = math.Float64bits(math.Float64frombits(regs[41]) / math.Float64frombits(uint64(0x4000000000000000)))
		writes++
	}
S50:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 50
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[42], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 51
			return kernEvent
		}
		goto B51
	}
B51:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 51
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}

// kernBasicmathF2 compiles IR function 2 (usqrt): 28 instructions, 9 blocks.
func kernBasicmathF2(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 17 {
		return kernBail
	}
	regs := fr.regs[:17:17]
	_ = regs
	dyn, readSlots, writes := m.dyn, m.readSlots, m.writes
	switch fr.pc {
	case 0:
		goto B0
	case 1:
		goto S1
	case 2:
		goto S2
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
		goto B9
	case 10:
		goto S10
	case 11:
		goto S11
	case 12:
		goto B12
	case 13:
		goto S13
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
		goto B22
	case 23:
		goto S23
	case 24:
		goto B24
	case 25:
		goto S25
	case 26:
		goto S26
	case 27:
		goto B27
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 3 {
			goto S0
		}
		regs[1] = regs[0]
		regs[2] = uint64(0x0)
		regs[3] = uint64(0x40000000)
		dyn += 3
		readSlots += 1
		writes += 3
		goto B3
	}
S0:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 0
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[1] = regs[0]
		writes++
	}
S1:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 1
			return kernHorizon
		}
		dyn++
		regs[2] = uint64(0x0)
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
		regs[3] = uint64(0x40000000)
		writes++
		goto B3
	}
B3:
	{
		if lim-dyn < 3 {
			goto S3
		}
		regs[4] = boolBit((regs[1] & 0xffffffff) < (regs[3] & 0xffffffff))
		regs[5] = boolBit(regs[4] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[5] != 0 {
			goto B9
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
		readSlots += 2
		regs[4] = boolBit((regs[1] & 0xffffffff) < (regs[3] & 0xffffffff))
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
		regs[5] = boolBit(regs[4] == uint64(0x0))
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
		if regs[5] != 0 {
			goto B9
		}
		goto B6
	}
B6:
	{
		if lim-dyn < 3 {
			goto S6
		}
		regs[6] = (regs[3] & 0xffffffff) >> 2
		regs[3] = regs[6]
		dyn += 3
		readSlots += 2
		writes += 2
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
		regs[6] = (regs[3] & 0xffffffff) >> 2
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
		regs[3] = regs[6]
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
		goto B3
	}
B9:
	{
		if lim-dyn < 3 {
			goto S9
		}
		regs[7] = boolBit((regs[3] & 0xffffffff) != uint64(0x0))
		regs[8] = boolBit(regs[7] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[8] != 0 {
			goto B27
		}
		goto B12
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
		regs[7] = boolBit((regs[3] & 0xffffffff) != uint64(0x0))
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
		regs[8] = boolBit(regs[7] == uint64(0x0))
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
		if regs[8] != 0 {
			goto B27
		}
		goto B12
	}
B12:
	{
		if lim-dyn < 4 {
			goto S12
		}
		regs[9] = (regs[2] + regs[3]) & 0xffffffff
		regs[10] = boolBit((regs[9] & 0xffffffff) <= (regs[1] & 0xffffffff))
		regs[11] = boolBit(regs[10] == uint64(0x0))
		dyn += 4
		readSlots += 6
		writes += 3
		if regs[11] != 0 {
			goto B22
		}
		goto B16
	}
S12:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 12
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[9] = (regs[2] + regs[3]) & 0xffffffff
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
		readSlots += 2
		regs[10] = boolBit((regs[9] & 0xffffffff) <= (regs[1] & 0xffffffff))
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
		regs[11] = boolBit(regs[10] == uint64(0x0))
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
		if regs[11] != 0 {
			goto B22
		}
		goto B16
	}
B16:
	{
		if lim-dyn < 6 {
			goto S16
		}
		regs[12] = (regs[1] - regs[9]) & 0xffffffff
		regs[1] = regs[12]
		regs[13] = (regs[2] & 0xffffffff) >> 1
		regs[14] = (regs[13] + regs[3]) & 0xffffffff
		regs[2] = regs[14]
		dyn += 6
		readSlots += 7
		writes += 5
		goto B24
	}
S16:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 16
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[12] = (regs[1] - regs[9]) & 0xffffffff
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
		regs[1] = regs[12]
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
		regs[13] = (regs[2] & 0xffffffff) >> 1
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
		readSlots += 2
		regs[14] = (regs[13] + regs[3]) & 0xffffffff
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
		regs[2] = regs[14]
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
		goto B24
	}
B22:
	{
		if lim-dyn < 2 {
			goto S22
		}
		regs[15] = (regs[2] & 0xffffffff) >> 1
		regs[2] = regs[15]
		dyn += 2
		readSlots += 2
		writes += 2
		goto B24
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
		regs[15] = (regs[2] & 0xffffffff) >> 1
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
		readSlots += 1
		regs[2] = regs[15]
		writes++
		goto B24
	}
B24:
	{
		if lim-dyn < 3 {
			goto S24
		}
		regs[16] = (regs[3] & 0xffffffff) >> 2
		regs[3] = regs[16]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B9
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
		regs[16] = (regs[3] & 0xffffffff) >> 2
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
		regs[3] = regs[16]
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
		goto B9
	}
B27:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 27
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
