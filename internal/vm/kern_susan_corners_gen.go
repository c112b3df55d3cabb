// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "susan_corners" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("susan_corners", 0x6e0a85c96a5545eb, []kernFn{kernSusanCornersF0})
}

// kernSusanCornersF0 compiles IR function 0 (main): 55 instructions, 13 blocks.
func kernSusanCornersF0(m *machine, fr *frame, lim uint64) kernStat {
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
		goto B1
	case 2:
		goto S2
	case 3:
		goto S3
	case 4:
		goto B4
	case 5:
		goto B5
	case 6:
		goto S6
	case 7:
		goto S7
	case 8:
		goto B8
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
		goto B21
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
		goto B41
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
	case 52:
		goto S52
	case 53:
		goto S53
	case 54:
		goto B54
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 1 {
			goto S0
		}
		regs[0] = uint64(0x2)
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
		regs[0] = uint64(0x2)
		writes++
		goto B1
	}
B1:
	{
		if lim-dyn < 3 {
			goto S1
		}
		regs[1] = boolBit(int64(int32(regs[0])) < int64(14))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B54
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(14))
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
			goto B54
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 1 {
			goto S4
		}
		regs[3] = uint64(0x2)
		dyn += 1
		writes += 1
		goto B5
	}
S4:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 4
			return kernHorizon
		}
		dyn++
		regs[3] = uint64(0x2)
		writes++
		goto B5
	}
B5:
	{
		if lim-dyn < 3 {
			goto S5
		}
		regs[4] = boolBit(int64(int32(regs[3])) < int64(14))
		regs[5] = boolBit(regs[4] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[5] != 0 {
			goto B51
		}
		goto B8
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
		regs[4] = boolBit(int64(int32(regs[3])) < int64(14))
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
		regs[5] = boolBit(regs[4] == uint64(0x0))
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
		if regs[5] != 0 {
			goto B51
		}
		goto B8
	}
B8:
	{
		if lim-dyn < 7 {
			goto S8
		}
		regs[6] = (regs[0] * uint64(0x10)) & 0xffffffff
		regs[7] = (regs[6] + regs[3]) & 0xffffffff
		regs[8] = regs[7] * uint64(0x1)
		regs[9] = uint64(0x10000000) + regs[8]
		v12, ok12 := m.flatLoad8(regs[9])
		if !ok12 {
			var t12 TrapKind
			if v12, t12 = m.load(regs[9], 1); t12 != TrapNone {
				dyn += 5
				readSlots += 6
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t12)
				return kernHalt
			}
		}
		regs[10] = v12
		regs[11] = uint64(0x0)
		regs[12] = uint64(0xfffffffffffffffe)
		dyn += 7
		readSlots += 6
		writes += 7
		goto B15
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
		regs[6] = (regs[0] * uint64(0x10)) & 0xffffffff
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
		regs[7] = (regs[6] + regs[3]) & 0xffffffff
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
		regs[8] = regs[7] * uint64(0x1)
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
		regs[9] = uint64(0x10000000) + regs[8]
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
		v12, ok12 := m.flatLoad8(regs[9])
		if !ok12 {
			var t12 TrapKind
			if v12, t12 = m.load(regs[9], 1); t12 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t12)
				return kernHalt
			}
		}
		regs[10] = v12
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
		regs[11] = uint64(0x0)
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
		regs[12] = uint64(0xfffffffffffffffe)
		writes++
		goto B15
	}
B15:
	{
		if lim-dyn < 3 {
			goto S15
		}
		regs[13] = boolBit(int64(int32(regs[12])) < int64(3))
		regs[14] = boolBit(regs[13] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[14] != 0 {
			goto B44
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
		regs[13] = boolBit(int64(int32(regs[12])) < int64(3))
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
		regs[14] = boolBit(regs[13] == uint64(0x0))
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
		if regs[14] != 0 {
			goto B44
		}
		goto B18
	}
B18:
	{
		if lim-dyn < 3 {
			goto S18
		}
		regs[15] = (regs[0] + regs[12]) & 0xffffffff
		regs[16] = (regs[15] * uint64(0x10)) & 0xffffffff
		regs[17] = uint64(0xfffffffffffffffe)
		dyn += 3
		readSlots += 3
		writes += 3
		goto B21
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
		regs[15] = (regs[0] + regs[12]) & 0xffffffff
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
		regs[16] = (regs[15] * uint64(0x10)) & 0xffffffff
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
		regs[17] = uint64(0xfffffffffffffffe)
		writes++
		goto B21
	}
B21:
	{
		if lim-dyn < 3 {
			goto S21
		}
		regs[18] = boolBit(int64(int32(regs[17])) < int64(3))
		regs[19] = boolBit(regs[18] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[19] != 0 {
			goto B41
		}
		goto B24
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
		regs[18] = boolBit(int64(int32(regs[17])) < int64(3))
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
		regs[19] = boolBit(regs[18] == uint64(0x0))
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
		if regs[19] != 0 {
			goto B41
		}
		goto B24
	}
B24:
	{
		if lim-dyn < 17 {
			goto S24
		}
		regs[20] = (regs[3] + regs[17]) & 0xffffffff
		regs[21] = (regs[16] + regs[20]) & 0xffffffff
		regs[22] = regs[21] * uint64(0x1)
		regs[23] = uint64(0x10000000) + regs[22]
		v28, ok28 := m.flatLoad8(regs[23])
		if !ok28 {
			var t28 TrapKind
			if v28, t28 = m.load(regs[23], 1); t28 != TrapNone {
				dyn += 5
				readSlots += 7
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t28)
				return kernHalt
			}
		}
		regs[24] = v28
		regs[25] = (regs[24] - regs[10]) & 0xffffffff
		regs[26] = boolBit(int64(int32(regs[25])) < int64(0))
		regs[27] = (uint64(0x0) - regs[25]) & 0xffffffff
		if regs[26] != 0 {
			regs[28] = regs[27]
		} else {
			regs[28] = regs[25]
		}
		regs[29] = regs[28] * uint64(0x1)
		regs[30] = uint64(0x10000100) + regs[29]
		v35, ok35 := m.flatLoad8(regs[30])
		if !ok35 {
			var t35 TrapKind
			if v35, t35 = m.load(regs[30], 1); t35 != TrapNone {
				dyn += 12
				readSlots += 17
				writes += 11
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t35)
				return kernHalt
			}
		}
		regs[31] = v35
		regs[32] = (regs[11] + regs[31]) & 0xffffffff
		regs[11] = regs[32]
		regs[33] = (regs[17] + uint64(0x1)) & 0xffffffff
		regs[17] = regs[33]
		dyn += 17
		readSlots += 22
		writes += 16
		goto B21
	}
S24:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 24
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[20] = (regs[3] + regs[17]) & 0xffffffff
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
		regs[21] = (regs[16] + regs[20]) & 0xffffffff
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
		readSlots += 1
		regs[22] = regs[21] * uint64(0x1)
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
		regs[23] = uint64(0x10000000) + regs[22]
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
		v28, ok28 := m.flatLoad8(regs[23])
		if !ok28 {
			var t28 TrapKind
			if v28, t28 = m.load(regs[23], 1); t28 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t28)
				return kernHalt
			}
		}
		regs[24] = v28
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
		regs[25] = (regs[24] - regs[10]) & 0xffffffff
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
		regs[26] = boolBit(int64(int32(regs[25])) < int64(0))
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
		regs[27] = (uint64(0x0) - regs[25]) & 0xffffffff
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
		readSlots += 3
		if regs[26] != 0 {
			regs[28] = regs[27]
		} else {
			regs[28] = regs[25]
		}
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
		regs[29] = regs[28] * uint64(0x1)
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
		regs[30] = uint64(0x10000100) + regs[29]
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
		v35, ok35 := m.flatLoad8(regs[30])
		if !ok35 {
			var t35 TrapKind
			if v35, t35 = m.load(regs[30], 1); t35 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t35)
				return kernHalt
			}
		}
		regs[31] = v35
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
		regs[32] = (regs[11] + regs[31]) & 0xffffffff
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
		regs[11] = regs[32]
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
		regs[33] = (regs[17] + uint64(0x1)) & 0xffffffff
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
		regs[17] = regs[33]
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
		goto B21
	}
B41:
	{
		if lim-dyn < 3 {
			goto S41
		}
		regs[34] = (regs[12] + uint64(0x1)) & 0xffffffff
		regs[12] = regs[34]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B15
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
		regs[34] = (regs[12] + uint64(0x1)) & 0xffffffff
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
		regs[12] = regs[34]
		writes++
	}
S43:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 43
			return kernHorizon
		}
		dyn++
		goto B15
	}
B44:
	{
		if lim-dyn < 7 {
			goto S44
		}
		regs[35] = boolBit((regs[11] & 0xffffffff) < uint64(0x4e2))
		regs[36] = (uint64(0x4e2) - regs[11]) & 0xffffffff
		if regs[35] != 0 {
			regs[37] = regs[36]
		} else {
			regs[37] = uint64(0x0)
		}
		if !m.outAppend((regs[37] & 0xffffffff), 4) {
			dyn += 4
			readSlots += 5
			writes += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 4
			readSlots += 5
			writes += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 48
			return kernEvent
		}
		regs[38] = (regs[3] + uint64(0x1)) & 0xffffffff
		regs[3] = regs[38]
		dyn += 7
		readSlots += 7
		writes += 5
		goto B5
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
		regs[35] = boolBit((regs[11] & 0xffffffff) < uint64(0x4e2))
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
		regs[36] = (uint64(0x4e2) - regs[11]) & 0xffffffff
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
		readSlots += 2
		if regs[35] != 0 {
			regs[37] = regs[36]
		} else {
			regs[37] = uint64(0x0)
		}
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
		if !m.outAppend((regs[37] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 48
			return kernEvent
		}
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
		regs[38] = (regs[3] + uint64(0x1)) & 0xffffffff
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
		regs[3] = regs[38]
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
		goto B5
	}
B51:
	{
		if lim-dyn < 3 {
			goto S51
		}
		regs[39] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[39]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B1
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
		regs[39] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[39]
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
		goto B1
	}
B54:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 54
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
