// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "dijkstra" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("dijkstra", 0x114803748b921ef0, []kernFn{kernDijkstraF0, kernDijkstraF1})
}

// kernDijkstraF0 compiles IR function 0 (main): 13 instructions, 7 blocks.
func kernDijkstraF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 6 {
		return kernBail
	}
	regs := fr.regs[:6:6]
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
		goto B3
	case 4:
		goto S4
	case 5:
		goto B5
	case 6:
		goto S6
	case 7:
		goto B7
	case 8:
		goto S8
	case 9:
		goto B9
	case 10:
		goto S10
	case 11:
		goto B11
	case 12:
		goto S12
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
		if lim-dyn < 1 {
			goto S1
		}
		if !m.outAppend((regs[0] & 0xffffffff), 4) {
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
			fr.pc = 2
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 2
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[0] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 2
			return kernEvent
		}
	}
S2:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 2
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B3:
	{
		if lim-dyn < 1 {
			goto S3
		}
		if !m.outAppend((regs[1] & 0xffffffff), 4) {
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
			fr.pc = 4
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 4
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[1] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 4
			return kernEvent
		}
	}
S4:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 4
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B5:
	{
		if lim-dyn < 1 {
			goto S5
		}
		if !m.outAppend((regs[2] & 0xffffffff), 4) {
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
			fr.pc = 6
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 6
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[2] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 6
			return kernEvent
		}
	}
S6:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 6
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B7:
	{
		if lim-dyn < 1 {
			goto S7
		}
		if !m.outAppend((regs[3] & 0xffffffff), 4) {
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
			fr.pc = 8
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 8
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[3] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 8
			return kernEvent
		}
	}
S8:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 8
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B9:
	{
		if lim-dyn < 1 {
			goto S9
		}
		if !m.outAppend((regs[4] & 0xffffffff), 4) {
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
			fr.pc = 10
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 10
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[4] & 0xffffffff), 4) {
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
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 10
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B11:
	{
		if lim-dyn < 1 {
			goto S11
		}
		if !m.outAppend((regs[5] & 0xffffffff), 4) {
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
			fr.pc = 12
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 12
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[5] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 12
			return kernEvent
		}
	}
S12:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 12
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}

// kernDijkstraF1 compiles IR function 1 (shortest): 85 instructions, 20 blocks.
func kernDijkstraF1(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 62 {
		return kernBail
	}
	regs := fr.regs[:62:62]
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
		goto S16
	case 17:
		goto B17
	case 18:
		goto S18
	case 19:
		goto S19
	case 20:
		goto B20
	case 21:
		goto S21
	case 22:
		goto S22
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
		goto B38
	case 39:
		goto S39
	case 40:
		goto B40
	case 41:
		goto S41
	case 42:
		goto S42
	case 43:
		goto B43
	case 44:
		goto S44
	case 45:
		goto S45
	case 46:
		goto B46
	case 47:
		goto S47
	case 48:
		goto S48
	case 49:
		goto S49
	case 50:
		goto S50
	case 51:
		goto S51
	case 52:
		goto S52
	case 53:
		goto S53
	case 54:
		goto S54
	case 55:
		goto S55
	case 56:
		goto B56
	case 57:
		goto S57
	case 58:
		goto S58
	case 59:
		goto B59
	case 60:
		goto S60
	case 61:
		goto S61
	case 62:
		goto S62
	case 63:
		goto S63
	case 64:
		goto S64
	case 65:
		goto B65
	case 66:
		goto S66
	case 67:
		goto S67
	case 68:
		goto S68
	case 69:
		goto S69
	case 70:
		goto S70
	case 71:
		goto S71
	case 72:
		goto B72
	case 73:
		goto S73
	case 74:
		goto S74
	case 75:
		goto B75
	case 76:
		goto S76
	case 77:
		goto S77
	case 78:
		goto B78
	case 79:
		goto S79
	case 80:
		goto S80
	case 81:
		goto B81
	case 82:
		goto S82
	case 83:
		goto S83
	case 84:
		goto S84
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
		regs[3] = boolBit(int64(int32(regs[2])) < int64(20))
		regs[4] = boolBit(regs[3] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[4] != 0 {
			goto B13
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
		regs[3] = boolBit(int64(int32(regs[2])) < int64(20))
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
			goto B13
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 9 {
			goto S4
		}
		regs[5] = regs[2] * uint64(0x4)
		regs[6] = uint64(0x10000640) + regs[5]
		if !m.flatStore32(regs[6], 0x3fffffff) {
			if t6 := m.store(regs[6], 4, uint64(0x3fffffff)); t6 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[7] = regs[2] * uint64(0x4)
		regs[8] = uint64(0x10000690) + regs[7]
		if !m.flatStore32(regs[8], 0x0) {
			if t9 := m.store(regs[8], 4, uint64(0x0)); t9 != TrapNone {
				dyn += 6
				readSlots += 6
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t9)
				return kernHalt
			}
		}
		regs[9] = (regs[2] + uint64(0x1)) & 0xffffffff
		regs[2] = regs[9]
		dyn += 9
		readSlots += 8
		writes += 6
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
		regs[5] = regs[2] * uint64(0x4)
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
		regs[6] = uint64(0x10000640) + regs[5]
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
		if !m.flatStore32(regs[6], 0x3fffffff) {
			if t6 := m.store(regs[6], 4, uint64(0x3fffffff)); t6 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
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
		regs[7] = regs[2] * uint64(0x4)
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
		regs[8] = uint64(0x10000690) + regs[7]
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
		if !m.flatStore32(regs[8], 0x0) {
			if t9 := m.store(regs[8], 4, uint64(0x0)); t9 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t9)
				return kernHalt
			}
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
		regs[9] = (regs[2] + uint64(0x1)) & 0xffffffff
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
		regs[2] = regs[9]
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
		goto B1
	}
B13:
	{
		if lim-dyn < 4 {
			goto S13
		}
		regs[10] = regs[0] * uint64(0x4)
		regs[11] = uint64(0x10000640) + regs[10]
		if !m.flatStore32(regs[11], 0x0) {
			if t15 := m.store(regs[11], 4, uint64(0x0)); t15 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t15)
				return kernHalt
			}
		}
		regs[12] = uint64(0x0)
		dyn += 4
		readSlots += 3
		writes += 3
		goto B17
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
		regs[10] = regs[0] * uint64(0x4)
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
		regs[11] = uint64(0x10000640) + regs[10]
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
		if !m.flatStore32(regs[11], 0x0) {
			if t15 := m.store(regs[11], 4, uint64(0x0)); t15 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t15)
				return kernHalt
			}
		}
	}
S16:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 16
			return kernHorizon
		}
		dyn++
		regs[12] = uint64(0x0)
		writes++
		goto B17
	}
B17:
	{
		if lim-dyn < 3 {
			goto S17
		}
		regs[13] = boolBit(int64(int32(regs[12])) < int64(20))
		regs[14] = boolBit(regs[13] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[14] != 0 {
			goto B81
		}
		goto B20
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
		regs[13] = boolBit(int64(int32(regs[12])) < int64(20))
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
		regs[14] = boolBit(regs[13] == uint64(0x0))
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
		if regs[14] != 0 {
			goto B81
		}
		goto B20
	}
B20:
	{
		if lim-dyn < 3 {
			goto S20
		}
		regs[15] = uint64(0x40000000)
		regs[16] = uint64(0xffffffffffffffff)
		regs[17] = uint64(0x0)
		dyn += 3
		writes += 3
		goto B23
	}
S20:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 20
			return kernHorizon
		}
		dyn++
		regs[15] = uint64(0x40000000)
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
		regs[16] = uint64(0xffffffffffffffff)
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
		regs[17] = uint64(0x0)
		writes++
		goto B23
	}
B23:
	{
		if lim-dyn < 3 {
			goto S23
		}
		regs[18] = boolBit(int64(int32(regs[17])) < int64(20))
		regs[19] = boolBit(regs[18] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[19] != 0 {
			goto B43
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
		regs[18] = boolBit(int64(int32(regs[17])) < int64(20))
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
		regs[19] = boolBit(regs[18] == uint64(0x0))
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
		if regs[19] != 0 {
			goto B43
		}
		goto B26
	}
B26:
	{
		if lim-dyn < 6 {
			goto S26
		}
		regs[20] = regs[17] * uint64(0x4)
		regs[21] = uint64(0x10000690) + regs[20]
		v28, ok28 := m.flatLoad32(regs[21])
		if !ok28 {
			var t28 TrapKind
			if v28, t28 = m.load(regs[21], 4); t28 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t28)
				return kernHalt
			}
		}
		regs[22] = v28
		regs[23] = boolBit((regs[22] & 0xffffffff) == uint64(0x0))
		regs[24] = boolBit(regs[23] == uint64(0x0))
		dyn += 6
		readSlots += 6
		writes += 5
		if regs[24] != 0 {
			goto B40
		}
		goto B32
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
		regs[20] = regs[17] * uint64(0x4)
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
		regs[21] = uint64(0x10000690) + regs[20]
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
		v28, ok28 := m.flatLoad32(regs[21])
		if !ok28 {
			var t28 TrapKind
			if v28, t28 = m.load(regs[21], 4); t28 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t28)
				return kernHalt
			}
		}
		regs[22] = v28
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
		regs[23] = boolBit((regs[22] & 0xffffffff) == uint64(0x0))
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
		regs[24] = boolBit(regs[23] == uint64(0x0))
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
		if regs[24] != 0 {
			goto B40
		}
		goto B32
	}
B32:
	{
		if lim-dyn < 6 {
			goto S32
		}
		regs[25] = regs[17] * uint64(0x4)
		regs[26] = uint64(0x10000640) + regs[25]
		v34, ok34 := m.flatLoad32(regs[26])
		if !ok34 {
			var t34 TrapKind
			if v34, t34 = m.load(regs[26], 4); t34 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t34)
				return kernHalt
			}
		}
		regs[27] = v34
		regs[28] = boolBit((regs[27] & 0xffffffff) < (regs[15] & 0xffffffff))
		regs[29] = boolBit(regs[28] == uint64(0x0))
		dyn += 6
		readSlots += 7
		writes += 5
		if regs[29] != 0 {
			goto B40
		}
		goto B38
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
		regs[25] = regs[17] * uint64(0x4)
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
		regs[26] = uint64(0x10000640) + regs[25]
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
		v34, ok34 := m.flatLoad32(regs[26])
		if !ok34 {
			var t34 TrapKind
			if v34, t34 = m.load(regs[26], 4); t34 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t34)
				return kernHalt
			}
		}
		regs[27] = v34
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
		readSlots += 2
		regs[28] = boolBit((regs[27] & 0xffffffff) < (regs[15] & 0xffffffff))
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
		regs[29] = boolBit(regs[28] == uint64(0x0))
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
		if regs[29] != 0 {
			goto B40
		}
		goto B38
	}
B38:
	{
		if lim-dyn < 2 {
			goto S38
		}
		regs[15] = regs[27]
		regs[16] = regs[17]
		dyn += 2
		readSlots += 2
		writes += 2
		goto B40
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
		regs[15] = regs[27]
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
		readSlots += 1
		regs[16] = regs[17]
		writes++
		goto B40
	}
B40:
	{
		if lim-dyn < 3 {
			goto S40
		}
		regs[30] = (regs[17] + uint64(0x1)) & 0xffffffff
		regs[17] = regs[30]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B23
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
		regs[30] = (regs[17] + uint64(0x1)) & 0xffffffff
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
		regs[17] = regs[30]
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
		goto B23
	}
B43:
	{
		if lim-dyn < 3 {
			goto S43
		}
		regs[31] = boolBit(int64(0) <= int64(int32(regs[16])))
		regs[32] = boolBit(regs[31] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[32] != 0 {
			goto B78
		}
		goto B46
	}
S43:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 43
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[31] = boolBit(int64(0) <= int64(int32(regs[16])))
		writes++
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
		regs[32] = boolBit(regs[31] == uint64(0x0))
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
		if regs[32] != 0 {
			goto B78
		}
		goto B46
	}
B46:
	{
		if lim-dyn < 10 {
			goto S46
		}
		regs[33] = regs[16] * uint64(0x4)
		regs[34] = uint64(0x10000690) + regs[33]
		if !m.flatStore32(regs[34], 0x1) {
			if t48 := m.store(regs[34], 4, uint64(0x1)); t48 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
		regs[35] = regs[16] * uint64(0x4)
		regs[36] = uint64(0x10000640) + regs[35]
		v51, ok51 := m.flatLoad32(regs[36])
		if !ok51 {
			var t51 TrapKind
			if v51, t51 = m.load(regs[36], 4); t51 != TrapNone {
				dyn += 6
				readSlots += 6
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t51)
				return kernHalt
			}
		}
		regs[37] = v51
		regs[38] = (regs[16] * uint64(0x14)) & 0xffffffff
		regs[39] = regs[38] * uint64(0x4)
		regs[40] = uint64(0x10000000) + regs[39]
		regs[41] = uint64(0x0)
		dyn += 10
		readSlots += 9
		writes += 9
		goto B56
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
		regs[33] = regs[16] * uint64(0x4)
		writes++
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
		regs[34] = uint64(0x10000690) + regs[33]
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
		if !m.flatStore32(regs[34], 0x1) {
			if t48 := m.store(regs[34], 4, uint64(0x1)); t48 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
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
		regs[35] = regs[16] * uint64(0x4)
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
		regs[36] = uint64(0x10000640) + regs[35]
		writes++
	}
S51:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 51
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v51, ok51 := m.flatLoad32(regs[36])
		if !ok51 {
			var t51 TrapKind
			if v51, t51 = m.load(regs[36], 4); t51 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t51)
				return kernHalt
			}
		}
		regs[37] = v51
		writes++
	}
S52:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 52
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[38] = (regs[16] * uint64(0x14)) & 0xffffffff
		writes++
	}
S53:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 53
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[39] = regs[38] * uint64(0x4)
		writes++
	}
S54:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 54
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[40] = uint64(0x10000000) + regs[39]
		writes++
	}
S55:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 55
			return kernHorizon
		}
		dyn++
		regs[41] = uint64(0x0)
		writes++
		goto B56
	}
B56:
	{
		if lim-dyn < 3 {
			goto S56
		}
		regs[42] = boolBit(int64(int32(regs[41])) < int64(20))
		regs[43] = boolBit(regs[42] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[43] != 0 {
			goto B78
		}
		goto B59
	}
S56:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 56
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[42] = boolBit(int64(int32(regs[41])) < int64(20))
		writes++
	}
S57:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 57
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[43] = boolBit(regs[42] == uint64(0x0))
		writes++
	}
S58:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 58
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[43] != 0 {
			goto B78
		}
		goto B59
	}
B59:
	{
		if lim-dyn < 6 {
			goto S59
		}
		regs[44] = regs[41] * uint64(0x4)
		regs[45] = regs[40] + regs[44]
		v61, ok61 := m.flatLoad32(regs[45])
		if !ok61 {
			var t61 TrapKind
			if v61, t61 = m.load(regs[45], 4); t61 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t61)
				return kernHalt
			}
		}
		regs[46] = v61
		regs[47] = boolBit((regs[46] & 0xffffffff) < uint64(0x3fffffff))
		regs[48] = boolBit(regs[47] == uint64(0x0))
		dyn += 6
		readSlots += 7
		writes += 5
		if regs[48] != 0 {
			goto B75
		}
		goto B65
	}
S59:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 59
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[44] = regs[41] * uint64(0x4)
		writes++
	}
S60:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 60
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[45] = regs[40] + regs[44]
		writes++
	}
S61:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 61
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v61, ok61 := m.flatLoad32(regs[45])
		if !ok61 {
			var t61 TrapKind
			if v61, t61 = m.load(regs[45], 4); t61 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t61)
				return kernHalt
			}
		}
		regs[46] = v61
		writes++
	}
S62:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 62
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[47] = boolBit((regs[46] & 0xffffffff) < uint64(0x3fffffff))
		writes++
	}
S63:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 63
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[48] = boolBit(regs[47] == uint64(0x0))
		writes++
	}
S64:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 64
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[48] != 0 {
			goto B75
		}
		goto B65
	}
B65:
	{
		if lim-dyn < 7 {
			goto S65
		}
		regs[49] = (regs[37] + regs[46]) & 0xffffffff
		regs[50] = regs[41] * uint64(0x4)
		regs[51] = uint64(0x10000640) + regs[50]
		v68, ok68 := m.flatLoad32(regs[51])
		if !ok68 {
			var t68 TrapKind
			if v68, t68 = m.load(regs[51], 4); t68 != TrapNone {
				dyn += 4
				readSlots += 5
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t68)
				return kernHalt
			}
		}
		regs[52] = v68
		regs[53] = boolBit((regs[49] & 0xffffffff) < (regs[52] & 0xffffffff))
		regs[54] = boolBit(regs[53] == uint64(0x0))
		dyn += 7
		readSlots += 9
		writes += 6
		if regs[54] != 0 {
			goto B75
		}
		goto B72
	}
S65:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 65
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[49] = (regs[37] + regs[46]) & 0xffffffff
		writes++
	}
S66:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 66
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[50] = regs[41] * uint64(0x4)
		writes++
	}
S67:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 67
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[51] = uint64(0x10000640) + regs[50]
		writes++
	}
S68:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 68
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v68, ok68 := m.flatLoad32(regs[51])
		if !ok68 {
			var t68 TrapKind
			if v68, t68 = m.load(regs[51], 4); t68 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t68)
				return kernHalt
			}
		}
		regs[52] = v68
		writes++
	}
S69:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 69
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[53] = boolBit((regs[49] & 0xffffffff) < (regs[52] & 0xffffffff))
		writes++
	}
S70:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 70
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[54] = boolBit(regs[53] == uint64(0x0))
		writes++
	}
S71:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 71
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[54] != 0 {
			goto B75
		}
		goto B72
	}
B72:
	{
		if lim-dyn < 3 {
			goto S72
		}
		regs[55] = regs[41] * uint64(0x4)
		regs[56] = uint64(0x10000640) + regs[55]
		if !m.flatStore32(regs[56], uint32(regs[49])) {
			if t74 := m.store(regs[56], 4, regs[49]); t74 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t74)
				return kernHalt
			}
		}
		dyn += 3
		readSlots += 4
		writes += 2
		goto B75
	}
S72:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 72
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[55] = regs[41] * uint64(0x4)
		writes++
	}
S73:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 73
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[56] = uint64(0x10000640) + regs[55]
		writes++
	}
S74:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 74
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore32(regs[56], uint32(regs[49])) {
			if t74 := m.store(regs[56], 4, regs[49]); t74 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t74)
				return kernHalt
			}
		}
		goto B75
	}
B75:
	{
		if lim-dyn < 3 {
			goto S75
		}
		regs[57] = (regs[41] + uint64(0x1)) & 0xffffffff
		regs[41] = regs[57]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B56
	}
S75:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 75
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[57] = (regs[41] + uint64(0x1)) & 0xffffffff
		writes++
	}
S76:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 76
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[41] = regs[57]
		writes++
	}
S77:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 77
			return kernHorizon
		}
		dyn++
		goto B56
	}
B78:
	{
		if lim-dyn < 3 {
			goto S78
		}
		regs[58] = (regs[12] + uint64(0x1)) & 0xffffffff
		regs[12] = regs[58]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B17
	}
S78:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 78
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[58] = (regs[12] + uint64(0x1)) & 0xffffffff
		writes++
	}
S79:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 79
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[12] = regs[58]
		writes++
	}
S80:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 80
			return kernHorizon
		}
		dyn++
		goto B17
	}
B81:
	{
		if lim-dyn < 3 {
			goto S81
		}
		regs[59] = regs[1] * uint64(0x4)
		regs[60] = uint64(0x10000640) + regs[59]
		v83, ok83 := m.flatLoad32(regs[60])
		if !ok83 {
			var t83 TrapKind
			if v83, t83 = m.load(regs[60], 4); t83 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t83)
				return kernHalt
			}
		}
		regs[61] = v83
		dyn += 3
		readSlots += 3
		writes += 3
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 84
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
S81:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 81
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[59] = regs[1] * uint64(0x4)
		writes++
	}
S82:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 82
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[60] = uint64(0x10000640) + regs[59]
		writes++
	}
S83:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 83
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v83, ok83 := m.flatLoad32(regs[60])
		if !ok83 {
			var t83 TrapKind
			if v83, t83 = m.load(regs[60], 4); t83 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t83)
				return kernHalt
			}
		}
		regs[61] = v83
		writes++
	}
S84:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 84
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
