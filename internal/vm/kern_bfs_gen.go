// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "bfs" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("bfs", 0x63b4a0264620b470, []kernFn{kernBfsF0})
}

// kernBfsF0 compiles IR function 0 (main): 70 instructions, 15 blocks.
func kernBfsF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 49 {
		return kernBail
	}
	regs := fr.regs[:49:49]
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
		goto B10
	case 11:
		goto S11
	case 12:
		goto S12
	case 13:
		goto S13
	case 14:
		goto B14
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
		goto B36
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
		goto B45
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
		goto S51
	case 52:
		goto S52
	case 53:
		goto S53
	case 54:
		goto B54
	case 55:
		goto S55
	case 56:
		goto S56
	case 57:
		goto B57
	case 58:
		goto B58
	case 59:
		goto B59
	case 60:
		goto S60
	case 61:
		goto S61
	case 62:
		goto B62
	case 63:
		goto S63
	case 64:
		goto S64
	case 65:
		goto S65
	case 66:
		goto S66
	case 67:
		goto S67
	case 68:
		goto S68
	case 69:
		goto B69
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(256))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B10
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(256))
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
			goto B10
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 6 {
			goto S4
		}
		regs[3] = regs[0] * uint64(0x4)
		regs[4] = uint64(0x10001398) + regs[3]
		if !m.flatStore32(regs[4], 0xffffffff) {
			if t6 := m.store(regs[4], 4, uint64(0xffffffffffffffff)); t6 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[5] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[5]
		dyn += 6
		readSlots += 5
		writes += 4
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
		regs[4] = uint64(0x10001398) + regs[3]
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
		if !m.flatStore32(regs[4], 0xffffffff) {
			if t6 := m.store(regs[4], 4, uint64(0xffffffffffffffff)); t6 != TrapNone {
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
		regs[5] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[5]
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
		goto B1
	}
B10:
	{
		if lim-dyn < 4 {
			goto S10
		}
		if !m.flatStore32(uint64(0x10001398), 0x0) {
			if t10 := m.store(uint64(0x10001398), 4, uint64(0x0)); t10 != TrapNone {
				dyn += 1
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t10)
				return kernHalt
			}
		}
		if !m.flatStore32(uint64(0x10001798), 0x0) {
			if t11 := m.store(uint64(0x10001798), 4, uint64(0x0)); t11 != TrapNone {
				dyn += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t11)
				return kernHalt
			}
		}
		regs[6] = uint64(0x0)
		regs[7] = uint64(0x1)
		dyn += 4
		writes += 2
		goto B14
	}
S10:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 10
			return kernHorizon
		}
		dyn++
		if !m.flatStore32(uint64(0x10001398), 0x0) {
			if t10 := m.store(uint64(0x10001398), 4, uint64(0x0)); t10 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t10)
				return kernHalt
			}
		}
	}
S11:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 11
			return kernHorizon
		}
		dyn++
		if !m.flatStore32(uint64(0x10001798), 0x0) {
			if t11 := m.store(uint64(0x10001798), 4, uint64(0x0)); t11 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t11)
				return kernHalt
			}
		}
	}
S12:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 12
			return kernHorizon
		}
		dyn++
		regs[6] = uint64(0x0)
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
		regs[7] = uint64(0x1)
		writes++
		goto B14
	}
B14:
	{
		if lim-dyn < 3 {
			goto S14
		}
		regs[8] = boolBit(int64(int32(regs[6])) < int64(int32(regs[7])))
		regs[9] = boolBit(regs[8] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[9] != 0 {
			goto B58
		}
		goto B17
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
		regs[8] = boolBit(int64(int32(regs[6])) < int64(int32(regs[7])))
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
		regs[9] = boolBit(regs[8] == uint64(0x0))
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
		if regs[9] != 0 {
			goto B58
		}
		goto B17
	}
B17:
	{
		if lim-dyn < 16 {
			goto S17
		}
		regs[10] = regs[6] * uint64(0x4)
		regs[11] = uint64(0x10001798) + regs[10]
		v19, ok19 := m.flatLoad32(regs[11])
		if !ok19 {
			var t19 TrapKind
			if v19, t19 = m.load(regs[11], 4); t19 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
		regs[12] = v19
		regs[13] = (regs[6] + uint64(0x1)) & 0xffffffff
		regs[6] = regs[13]
		regs[14] = regs[12] * uint64(0x4)
		regs[15] = uint64(0x10001398) + regs[14]
		v24, ok24 := m.flatLoad32(regs[15])
		if !ok24 {
			var t24 TrapKind
			if v24, t24 = m.load(regs[15], 4); t24 != TrapNone {
				dyn += 8
				readSlots += 8
				writes += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
		}
		regs[16] = v24
		regs[17] = regs[12] * uint64(0x4)
		regs[18] = uint64(0x10000000) + regs[17]
		v27, ok27 := m.flatLoad32(regs[18])
		if !ok27 {
			var t27 TrapKind
			if v27, t27 = m.load(regs[18], 4); t27 != TrapNone {
				dyn += 11
				readSlots += 11
				writes += 10
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t27)
				return kernHalt
			}
		}
		regs[19] = v27
		regs[20] = (regs[12] + uint64(0x1)) & 0xffffffff
		regs[21] = regs[20] * uint64(0x4)
		regs[22] = uint64(0x10000000) + regs[21]
		v31, ok31 := m.flatLoad32(regs[22])
		if !ok31 {
			var t31 TrapKind
			if v31, t31 = m.load(regs[22], 4); t31 != TrapNone {
				dyn += 15
				readSlots += 15
				writes += 14
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t31)
				return kernHalt
			}
		}
		regs[23] = v31
		regs[24] = regs[19]
		dyn += 16
		readSlots += 16
		writes += 16
		goto B33
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
		regs[10] = regs[6] * uint64(0x4)
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
		regs[11] = uint64(0x10001798) + regs[10]
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
		v19, ok19 := m.flatLoad32(regs[11])
		if !ok19 {
			var t19 TrapKind
			if v19, t19 = m.load(regs[11], 4); t19 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
		regs[12] = v19
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
		regs[13] = (regs[6] + uint64(0x1)) & 0xffffffff
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
		regs[6] = regs[13]
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
		regs[14] = regs[12] * uint64(0x4)
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
		regs[15] = uint64(0x10001398) + regs[14]
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
		v24, ok24 := m.flatLoad32(regs[15])
		if !ok24 {
			var t24 TrapKind
			if v24, t24 = m.load(regs[15], 4); t24 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
		}
		regs[16] = v24
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
		regs[17] = regs[12] * uint64(0x4)
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
		regs[18] = uint64(0x10000000) + regs[17]
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
		v27, ok27 := m.flatLoad32(regs[18])
		if !ok27 {
			var t27 TrapKind
			if v27, t27 = m.load(regs[18], 4); t27 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t27)
				return kernHalt
			}
		}
		regs[19] = v27
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
		regs[20] = (regs[12] + uint64(0x1)) & 0xffffffff
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
		regs[21] = regs[20] * uint64(0x4)
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
		regs[22] = uint64(0x10000000) + regs[21]
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
		v31, ok31 := m.flatLoad32(regs[22])
		if !ok31 {
			var t31 TrapKind
			if v31, t31 = m.load(regs[22], 4); t31 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t31)
				return kernHalt
			}
		}
		regs[23] = v31
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
		regs[24] = regs[19]
		writes++
		goto B33
	}
B33:
	{
		if lim-dyn < 3 {
			goto S33
		}
		regs[25] = boolBit(int64(int32(regs[24])) < int64(int32(regs[23])))
		regs[26] = boolBit(regs[25] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[26] != 0 {
			goto B57
		}
		goto B36
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
		regs[25] = boolBit(int64(int32(regs[24])) < int64(int32(regs[23])))
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
		regs[26] = boolBit(regs[25] == uint64(0x0))
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
		if regs[26] != 0 {
			goto B57
		}
		goto B36
	}
B36:
	{
		if lim-dyn < 9 {
			goto S36
		}
		regs[27] = regs[24] * uint64(0x4)
		regs[28] = uint64(0x10000408) + regs[27]
		v38, ok38 := m.flatLoad32(regs[28])
		if !ok38 {
			var t38 TrapKind
			if v38, t38 = m.load(regs[28], 4); t38 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t38)
				return kernHalt
			}
		}
		regs[29] = v38
		regs[30] = regs[29] * uint64(0x4)
		regs[31] = uint64(0x10001398) + regs[30]
		v41, ok41 := m.flatLoad32(regs[31])
		if !ok41 {
			var t41 TrapKind
			if v41, t41 = m.load(regs[31], 4); t41 != TrapNone {
				dyn += 6
				readSlots += 6
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t41)
				return kernHalt
			}
		}
		regs[32] = v41
		regs[33] = boolBit((regs[32] & 0xffffffff) == uint64(0xffffffff))
		regs[34] = boolBit(regs[33] == uint64(0x0))
		dyn += 9
		readSlots += 9
		writes += 8
		if regs[34] != 0 {
			goto B54
		}
		goto B45
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
		regs[27] = regs[24] * uint64(0x4)
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
		regs[28] = uint64(0x10000408) + regs[27]
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
		v38, ok38 := m.flatLoad32(regs[28])
		if !ok38 {
			var t38 TrapKind
			if v38, t38 = m.load(regs[28], 4); t38 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t38)
				return kernHalt
			}
		}
		regs[29] = v38
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
		regs[30] = regs[29] * uint64(0x4)
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
		regs[31] = uint64(0x10001398) + regs[30]
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
		v41, ok41 := m.flatLoad32(regs[31])
		if !ok41 {
			var t41 TrapKind
			if v41, t41 = m.load(regs[31], 4); t41 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t41)
				return kernHalt
			}
		}
		regs[32] = v41
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
		regs[33] = boolBit((regs[32] & 0xffffffff) == uint64(0xffffffff))
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
		readSlots += 1
		regs[34] = boolBit(regs[33] == uint64(0x0))
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
		if regs[34] != 0 {
			goto B54
		}
		goto B45
	}
B45:
	{
		if lim-dyn < 9 {
			goto S45
		}
		regs[35] = regs[29] * uint64(0x4)
		regs[36] = uint64(0x10001398) + regs[35]
		regs[37] = (regs[16] + uint64(0x1)) & 0xffffffff
		if !m.flatStore32(regs[36], uint32(regs[37])) {
			if t48 := m.store(regs[36], 4, regs[37]); t48 != TrapNone {
				dyn += 4
				readSlots += 5
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
		regs[38] = regs[7] * uint64(0x4)
		regs[39] = uint64(0x10001798) + regs[38]
		if !m.flatStore32(regs[39], uint32(regs[29])) {
			if t51 := m.store(regs[39], 4, regs[29]); t51 != TrapNone {
				dyn += 7
				readSlots += 9
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t51)
				return kernHalt
			}
		}
		regs[40] = (regs[7] + uint64(0x1)) & 0xffffffff
		regs[7] = regs[40]
		dyn += 9
		readSlots += 11
		writes += 7
		goto B54
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
		regs[35] = regs[29] * uint64(0x4)
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
		regs[36] = uint64(0x10001398) + regs[35]
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
		regs[37] = (regs[16] + uint64(0x1)) & 0xffffffff
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
		readSlots += 2
		if !m.flatStore32(regs[36], uint32(regs[37])) {
			if t48 := m.store(regs[36], 4, regs[37]); t48 != TrapNone {
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
		regs[38] = regs[7] * uint64(0x4)
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
		regs[39] = uint64(0x10001798) + regs[38]
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
		readSlots += 2
		if !m.flatStore32(regs[39], uint32(regs[29])) {
			if t51 := m.store(regs[39], 4, regs[29]); t51 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t51)
				return kernHalt
			}
		}
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
		regs[40] = (regs[7] + uint64(0x1)) & 0xffffffff
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
		regs[7] = regs[40]
		writes++
		goto B54
	}
B54:
	{
		if lim-dyn < 3 {
			goto S54
		}
		regs[41] = (regs[24] + uint64(0x1)) & 0xffffffff
		regs[24] = regs[41]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B33
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
		regs[41] = (regs[24] + uint64(0x1)) & 0xffffffff
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
		readSlots += 1
		regs[24] = regs[41]
		writes++
	}
S56:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 56
			return kernHorizon
		}
		dyn++
		goto B33
	}
B57:
	{
		if lim-dyn < 1 {
			goto S57
		}
		dyn += 1
		goto B14
	}
S57:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 57
			return kernHorizon
		}
		dyn++
		goto B14
	}
B58:
	{
		if lim-dyn < 1 {
			goto S58
		}
		regs[42] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B59
	}
S58:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 58
			return kernHorizon
		}
		dyn++
		regs[42] = uint64(0x0)
		writes++
		goto B59
	}
B59:
	{
		if lim-dyn < 3 {
			goto S59
		}
		regs[43] = boolBit(int64(int32(regs[42])) < int64(256))
		regs[44] = boolBit(regs[43] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[44] != 0 {
			goto B69
		}
		goto B62
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
		regs[43] = boolBit(int64(int32(regs[42])) < int64(256))
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
		readSlots += 1
		regs[44] = boolBit(regs[43] == uint64(0x0))
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
		if regs[44] != 0 {
			goto B69
		}
		goto B62
	}
B62:
	{
		if lim-dyn < 7 {
			goto S62
		}
		regs[45] = regs[42] * uint64(0x4)
		regs[46] = uint64(0x10001398) + regs[45]
		v64, ok64 := m.flatLoad32(regs[46])
		if !ok64 {
			var t64 TrapKind
			if v64, t64 = m.load(regs[46], 4); t64 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t64)
				return kernHalt
			}
		}
		regs[47] = v64
		if !m.outAppend((regs[47] & 0xffffffff), 4) {
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
			fr.pc = 66
			return kernEvent
		}
		regs[48] = (regs[42] + uint64(0x1)) & 0xffffffff
		regs[42] = regs[48]
		dyn += 7
		readSlots += 6
		writes += 5
		goto B59
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
		regs[45] = regs[42] * uint64(0x4)
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
		regs[46] = uint64(0x10001398) + regs[45]
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
		v64, ok64 := m.flatLoad32(regs[46])
		if !ok64 {
			var t64 TrapKind
			if v64, t64 = m.load(regs[46], 4); t64 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t64)
				return kernHalt
			}
		}
		regs[47] = v64
		writes++
	}
S65:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 65
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend((regs[47] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 66
			return kernEvent
		}
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
		regs[48] = (regs[42] + uint64(0x1)) & 0xffffffff
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
		regs[42] = regs[48]
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
		goto B59
	}
B69:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 69
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
