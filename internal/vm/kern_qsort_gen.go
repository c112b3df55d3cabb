// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "qsort" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("qsort", 0x55aeaacec53e7114, []kernFn{kernQsortF0, kernQsortF1})
}

// kernQsortF0 compiles IR function 0 (main): 13 instructions, 5 blocks.
func kernQsortF0(m *machine, fr *frame, lim uint64) kernStat {
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
		goto S3
	case 4:
		goto S4
	case 5:
		goto B5
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
		goto B12
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
		regs[0] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B2
	}
S1:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 1
			return kernHorizon
		}
		dyn++
		regs[0] = uint64(0x0)
		writes++
		goto B2
	}
B2:
	{
		if lim-dyn < 3 {
			goto S2
		}
		regs[1] = boolBit(int64(int32(regs[0])) < int64(150))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B12
		}
		goto B5
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(150))
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
		regs[2] = boolBit(regs[1] == uint64(0x0))
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
		if regs[2] != 0 {
			goto B12
		}
		goto B5
	}
B5:
	{
		if lim-dyn < 7 {
			goto S5
		}
		regs[3] = regs[0] * uint64(0x4)
		regs[4] = uint64(0x10000000) + regs[3]
		v7, ok7 := m.flatLoad32(regs[4])
		if !ok7 {
			var t7 TrapKind
			if v7, t7 = m.load(regs[4], 4); t7 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t7)
				return kernHalt
			}
		}
		regs[5] = v7
		if !m.outAppend((regs[5] & 0xffffffff), 4) {
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
			fr.pc = 9
			return kernEvent
		}
		regs[6] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[6]
		dyn += 7
		readSlots += 6
		writes += 5
		goto B2
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
		regs[3] = regs[0] * uint64(0x4)
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
		regs[4] = uint64(0x10000000) + regs[3]
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
		v7, ok7 := m.flatLoad32(regs[4])
		if !ok7 {
			var t7 TrapKind
			if v7, t7 = m.load(regs[4], 4); t7 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t7)
				return kernHalt
			}
		}
		regs[5] = v7
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
		if !m.outAppend((regs[5] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 9
			return kernEvent
		}
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
		regs[6] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[6]
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
		goto B2
	}
B12:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 12
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}

// kernQsortF1 compiles IR function 1 (quicksort): 51 instructions, 10 blocks.
func kernQsortF1(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 40 {
		return kernBail
	}
	regs := fr.regs[:40:40]
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
		goto B10
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
		goto S17
	case 18:
		goto S18
	case 19:
		goto B19
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
		goto B30
	case 31:
		goto S31
	case 32:
		goto S32
	case 33:
		goto B33
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
		goto S40
	case 41:
		goto S41
	case 42:
		goto S42
	case 43:
		goto S43
	case 44:
		goto S44
	case 45:
		goto S45
	case 46:
		goto S46
	case 47:
		goto S47
	case 48:
		goto B48
	case 49:
		goto S49
	case 50:
		goto B50
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 3 {
			goto S0
		}
		regs[3] = boolBit(int64(int32(regs[2])) <= int64(int32(regs[1])))
		regs[4] = boolBit(regs[3] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[4] != 0 {
			goto B4
		}
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
		readSlots += 2
		regs[3] = boolBit(int64(int32(regs[2])) <= int64(int32(regs[1])))
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
		regs[4] = boolBit(regs[3] == uint64(0x0))
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
		if regs[4] != 0 {
			goto B4
		}
		goto B3
	}
B3:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 3
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B4:
	{
		if lim-dyn < 6 {
			goto S4
		}
		regs[5] = regs[2] * uint64(0x4)
		regs[6] = regs[0] + regs[5]
		v6, ok6 := m.flatLoad32(regs[6])
		if !ok6 {
			var t6 TrapKind
			if v6, t6 = m.load(regs[6], 4); t6 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[7] = v6
		regs[8] = (regs[1] - uint64(0x1)) & 0xffffffff
		regs[9] = regs[8]
		regs[10] = regs[1]
		dyn += 6
		readSlots += 7
		writes += 6
		goto B10
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
		readSlots += 2
		regs[6] = regs[0] + regs[5]
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
		v6, ok6 := m.flatLoad32(regs[6])
		if !ok6 {
			var t6 TrapKind
			if v6, t6 = m.load(regs[6], 4); t6 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[7] = v6
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
		regs[8] = (regs[1] - uint64(0x1)) & 0xffffffff
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
		regs[9] = regs[8]
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
		regs[10] = regs[1]
		writes++
		goto B10
	}
B10:
	{
		if lim-dyn < 3 {
			goto S10
		}
		regs[11] = boolBit(int64(int32(regs[10])) < int64(int32(regs[2])))
		regs[12] = boolBit(regs[11] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[12] != 0 {
			goto B33
		}
		goto B13
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
		regs[11] = boolBit(int64(int32(regs[10])) < int64(int32(regs[2])))
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
		regs[12] = boolBit(regs[11] == uint64(0x0))
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
		if regs[12] != 0 {
			goto B33
		}
		goto B13
	}
B13:
	{
		if lim-dyn < 6 {
			goto S13
		}
		regs[13] = regs[10] * uint64(0x4)
		regs[14] = regs[0] + regs[13]
		v15, ok15 := m.flatLoad32(regs[14])
		if !ok15 {
			var t15 TrapKind
			if v15, t15 = m.load(regs[14], 4); t15 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t15)
				return kernHalt
			}
		}
		regs[15] = v15
		regs[16] = boolBit(int64(int32(regs[15])) <= int64(int32(regs[7])))
		regs[17] = boolBit(regs[16] == uint64(0x0))
		dyn += 6
		readSlots += 8
		writes += 5
		if regs[17] != 0 {
			goto B30
		}
		goto B19
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
		regs[13] = regs[10] * uint64(0x4)
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
		readSlots += 2
		regs[14] = regs[0] + regs[13]
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
		v15, ok15 := m.flatLoad32(regs[14])
		if !ok15 {
			var t15 TrapKind
			if v15, t15 = m.load(regs[14], 4); t15 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t15)
				return kernHalt
			}
		}
		regs[15] = v15
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
		regs[16] = boolBit(int64(int32(regs[15])) <= int64(int32(regs[7])))
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
		regs[17] = boolBit(regs[16] == uint64(0x0))
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
		if regs[17] != 0 {
			goto B30
		}
		goto B19
	}
B19:
	{
		if lim-dyn < 11 {
			goto S19
		}
		regs[18] = (regs[9] + uint64(0x1)) & 0xffffffff
		regs[9] = regs[18]
		regs[19] = regs[9] * uint64(0x4)
		regs[20] = regs[0] + regs[19]
		v23, ok23 := m.flatLoad32(regs[20])
		if !ok23 {
			var t23 TrapKind
			if v23, t23 = m.load(regs[20], 4); t23 != TrapNone {
				dyn += 5
				readSlots += 6
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t23)
				return kernHalt
			}
		}
		regs[21] = v23
		regs[22] = regs[9] * uint64(0x4)
		regs[23] = regs[0] + regs[22]
		if !m.flatStore32(regs[23], uint32(regs[15])) {
			if t26 := m.store(regs[23], 4, regs[15]); t26 != TrapNone {
				dyn += 8
				readSlots += 11
				writes += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t26)
				return kernHalt
			}
		}
		regs[24] = regs[10] * uint64(0x4)
		regs[25] = regs[0] + regs[24]
		if !m.flatStore32(regs[25], uint32(regs[21])) {
			if t29 := m.store(regs[25], 4, regs[21]); t29 != TrapNone {
				dyn += 11
				readSlots += 16
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t29)
				return kernHalt
			}
		}
		dyn += 11
		readSlots += 16
		writes += 9
		goto B30
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
		regs[18] = (regs[9] + uint64(0x1)) & 0xffffffff
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
		regs[9] = regs[18]
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
		regs[19] = regs[9] * uint64(0x4)
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
		readSlots += 2
		regs[20] = regs[0] + regs[19]
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
		v23, ok23 := m.flatLoad32(regs[20])
		if !ok23 {
			var t23 TrapKind
			if v23, t23 = m.load(regs[20], 4); t23 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t23)
				return kernHalt
			}
		}
		regs[21] = v23
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
		regs[22] = regs[9] * uint64(0x4)
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
		regs[23] = regs[0] + regs[22]
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
		if !m.flatStore32(regs[23], uint32(regs[15])) {
			if t26 := m.store(regs[23], 4, regs[15]); t26 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t26)
				return kernHalt
			}
		}
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
		regs[24] = regs[10] * uint64(0x4)
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
		regs[25] = regs[0] + regs[24]
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
		readSlots += 2
		if !m.flatStore32(regs[25], uint32(regs[21])) {
			if t29 := m.store(regs[25], 4, regs[21]); t29 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t29)
				return kernHalt
			}
		}
		goto B30
	}
B30:
	{
		if lim-dyn < 3 {
			goto S30
		}
		regs[26] = (regs[10] + uint64(0x1)) & 0xffffffff
		regs[10] = regs[26]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B10
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
		regs[26] = (regs[10] + uint64(0x1)) & 0xffffffff
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
		regs[10] = regs[26]
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
		goto B10
	}
B33:
	{
		if lim-dyn < 14 {
			goto S33
		}
		regs[27] = (regs[9] + uint64(0x1)) & 0xffffffff
		regs[28] = regs[27] * uint64(0x4)
		regs[29] = regs[0] + regs[28]
		v36, ok36 := m.flatLoad32(regs[29])
		if !ok36 {
			var t36 TrapKind
			if v36, t36 = m.load(regs[29], 4); t36 != TrapNone {
				dyn += 4
				readSlots += 5
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t36)
				return kernHalt
			}
		}
		regs[30] = v36
		regs[31] = regs[2] * uint64(0x4)
		regs[32] = regs[0] + regs[31]
		v39, ok39 := m.flatLoad32(regs[32])
		if !ok39 {
			var t39 TrapKind
			if v39, t39 = m.load(regs[32], 4); t39 != TrapNone {
				dyn += 7
				readSlots += 9
				writes += 6
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t39)
				return kernHalt
			}
		}
		regs[33] = v39
		regs[34] = regs[27] * uint64(0x4)
		regs[35] = regs[0] + regs[34]
		if !m.flatStore32(regs[35], uint32(regs[33])) {
			if t42 := m.store(regs[35], 4, regs[33]); t42 != TrapNone {
				dyn += 10
				readSlots += 14
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t42)
				return kernHalt
			}
		}
		regs[36] = regs[2] * uint64(0x4)
		regs[37] = regs[0] + regs[36]
		if !m.flatStore32(regs[37], uint32(regs[30])) {
			if t45 := m.store(regs[37], 4, regs[30]); t45 != TrapNone {
				dyn += 13
				readSlots += 19
				writes += 11
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t45)
				return kernHalt
			}
		}
		regs[38] = (regs[27] - uint64(0x1)) & 0xffffffff
		dyn += 14
		readSlots += 20
		writes += 12
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 47
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		regs[27] = (regs[9] + uint64(0x1)) & 0xffffffff
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
		regs[28] = regs[27] * uint64(0x4)
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
		regs[29] = regs[0] + regs[28]
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
		v36, ok36 := m.flatLoad32(regs[29])
		if !ok36 {
			var t36 TrapKind
			if v36, t36 = m.load(regs[29], 4); t36 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t36)
				return kernHalt
			}
		}
		regs[30] = v36
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
		regs[31] = regs[2] * uint64(0x4)
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
		readSlots += 2
		regs[32] = regs[0] + regs[31]
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
		v39, ok39 := m.flatLoad32(regs[32])
		if !ok39 {
			var t39 TrapKind
			if v39, t39 = m.load(regs[32], 4); t39 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t39)
				return kernHalt
			}
		}
		regs[33] = v39
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
		readSlots += 1
		regs[34] = regs[27] * uint64(0x4)
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
		readSlots += 2
		regs[35] = regs[0] + regs[34]
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
		readSlots += 2
		if !m.flatStore32(regs[35], uint32(regs[33])) {
			if t42 := m.store(regs[35], 4, regs[33]); t42 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t42)
				return kernHalt
			}
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
		readSlots += 1
		regs[36] = regs[2] * uint64(0x4)
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
		readSlots += 2
		regs[37] = regs[0] + regs[36]
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
		readSlots += 2
		if !m.flatStore32(regs[37], uint32(regs[30])) {
			if t45 := m.store(regs[37], 4, regs[30]); t45 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t45)
				return kernHalt
			}
		}
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
		regs[38] = (regs[27] - uint64(0x1)) & 0xffffffff
		writes++
	}
S47:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 47
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B48:
	{
		if lim-dyn < 1 {
			goto S48
		}
		regs[39] = (regs[27] + uint64(0x1)) & 0xffffffff
		dyn += 1
		readSlots += 1
		writes += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 49
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		regs[39] = (regs[27] + uint64(0x1)) & 0xffffffff
		writes++
	}
S49:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 49
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B50:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 50
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
