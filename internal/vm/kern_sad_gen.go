// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "sad" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("sad", 0x2f28962e5d694e8b, []kernFn{kernSadF0})
}

// kernSadF0 compiles IR function 0 (main): 90 instructions, 22 blocks.
func kernSadF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 64 {
		return kernBail
	}
	regs := fr.regs[:64:64]
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
		goto B13
	case 14:
		goto S14
	case 15:
		goto S15
	case 16:
		goto B16
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
		goto S56
	case 57:
		goto S57
	case 58:
		goto S58
	case 59:
		goto S59
	case 60:
		goto S60
	case 61:
		goto S61
	case 62:
		goto S62
	case 63:
		goto B63
	case 64:
		goto S64
	case 65:
		goto S65
	case 66:
		goto B66
	case 67:
		goto S67
	case 68:
		goto S68
	case 69:
		goto B69
	case 70:
		goto S70
	case 71:
		goto S71
	case 72:
		goto S72
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
	case 85:
		goto S85
	case 86:
		goto B86
	case 87:
		goto S87
	case 88:
		goto S88
	case 89:
		goto B89
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(4))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B89
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(4))
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
			goto B89
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 1 {
			goto S4
		}
		regs[3] = uint64(0x0)
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
		regs[3] = uint64(0x0)
		writes++
		goto B5
	}
B5:
	{
		if lim-dyn < 3 {
			goto S5
		}
		regs[4] = boolBit(int64(int32(regs[3])) < int64(4))
		regs[5] = boolBit(regs[4] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[5] != 0 {
			goto B86
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
		regs[4] = boolBit(int64(int32(regs[3])) < int64(4))
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
			goto B86
		}
		goto B8
	}
B8:
	{
		if lim-dyn < 5 {
			goto S8
		}
		regs[6] = (regs[0] * uint64(0x4)) & 0xffffffff
		regs[7] = (regs[3] * uint64(0x4)) & 0xffffffff
		regs[8] = uint64(0x7fffffff)
		regs[9] = uint64(0x0)
		regs[10] = uint64(0xffffffffffffffff)
		dyn += 5
		readSlots += 2
		writes += 5
		goto B13
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
		regs[6] = (regs[0] * uint64(0x4)) & 0xffffffff
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
		regs[7] = (regs[3] * uint64(0x4)) & 0xffffffff
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
		regs[8] = uint64(0x7fffffff)
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
		regs[9] = uint64(0x0)
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
		regs[10] = uint64(0xffffffffffffffff)
		writes++
		goto B13
	}
B13:
	{
		if lim-dyn < 3 {
			goto S13
		}
		regs[11] = boolBit(int64(int32(regs[10])) < int64(2))
		regs[12] = boolBit(regs[11] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[12] != 0 {
			goto B81
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
		readSlots += 1
		regs[11] = boolBit(int64(int32(regs[10])) < int64(2))
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
		regs[12] = boolBit(regs[11] == uint64(0x0))
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
		if regs[12] != 0 {
			goto B81
		}
		goto B16
	}
B16:
	{
		if lim-dyn < 1 {
			goto S16
		}
		regs[13] = uint64(0xffffffffffffffff)
		dyn += 1
		writes += 1
		goto B17
	}
S16:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 16
			return kernHorizon
		}
		dyn++
		regs[13] = uint64(0xffffffffffffffff)
		writes++
		goto B17
	}
B17:
	{
		if lim-dyn < 3 {
			goto S17
		}
		regs[14] = boolBit(int64(int32(regs[13])) < int64(2))
		regs[15] = boolBit(regs[14] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[15] != 0 {
			goto B78
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
		regs[14] = boolBit(int64(int32(regs[13])) < int64(2))
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
		regs[15] = boolBit(regs[14] == uint64(0x0))
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
		if regs[15] != 0 {
			goto B78
		}
		goto B20
	}
B20:
	{
		if lim-dyn < 11 {
			goto S20
		}
		regs[16] = (regs[6] + regs[10]) & 0xffffffff
		regs[17] = (regs[7] + regs[13]) & 0xffffffff
		regs[18] = boolBit(int64(0) <= int64(int32(regs[16])))
		regs[19] = boolBit(int64(int32(regs[16])) <= int64(12))
		regs[20] = (regs[18] & regs[19]) & 0xffffffff
		regs[21] = boolBit(int64(0) <= int64(int32(regs[17])))
		regs[22] = boolBit(int64(int32(regs[17])) <= int64(12))
		regs[23] = (regs[21] & regs[22]) & 0xffffffff
		regs[24] = (regs[20] & regs[23]) & 0xffffffff
		regs[25] = boolBit(regs[24] == uint64(0x0))
		dyn += 11
		readSlots += 16
		writes += 10
		if regs[25] != 0 {
			goto B75
		}
		goto B31
	}
S20:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 20
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[16] = (regs[6] + regs[10]) & 0xffffffff
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
		readSlots += 2
		regs[17] = (regs[7] + regs[13]) & 0xffffffff
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
		regs[18] = boolBit(int64(0) <= int64(int32(regs[16])))
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
		regs[19] = boolBit(int64(int32(regs[16])) <= int64(12))
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
		readSlots += 2
		regs[20] = (regs[18] & regs[19]) & 0xffffffff
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
		regs[21] = boolBit(int64(0) <= int64(int32(regs[17])))
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
		regs[22] = boolBit(int64(int32(regs[17])) <= int64(12))
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
		regs[23] = (regs[21] & regs[22]) & 0xffffffff
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
		regs[24] = (regs[20] & regs[23]) & 0xffffffff
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
		regs[25] = boolBit(regs[24] == uint64(0x0))
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
		if regs[25] != 0 {
			goto B75
		}
		goto B31
	}
B31:
	{
		if lim-dyn < 2 {
			goto S31
		}
		regs[26] = uint64(0x0)
		regs[27] = uint64(0x0)
		dyn += 2
		writes += 2
		goto B33
	}
S31:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 31
			return kernHorizon
		}
		dyn++
		regs[26] = uint64(0x0)
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
		regs[27] = uint64(0x0)
		writes++
		goto B33
	}
B33:
	{
		if lim-dyn < 3 {
			goto S33
		}
		regs[28] = boolBit(int64(int32(regs[27])) < int64(4))
		regs[29] = boolBit(regs[28] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[29] != 0 {
			goto B66
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
		readSlots += 1
		regs[28] = boolBit(int64(int32(regs[27])) < int64(4))
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
		regs[29] = boolBit(regs[28] == uint64(0x0))
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
		if regs[29] != 0 {
			goto B66
		}
		goto B36
	}
B36:
	{
		if lim-dyn < 5 {
			goto S36
		}
		regs[30] = (regs[6] + regs[27]) & 0xffffffff
		regs[31] = (regs[30] * uint64(0x10)) & 0xffffffff
		regs[32] = (regs[16] + regs[27]) & 0xffffffff
		regs[33] = (regs[32] * uint64(0x10)) & 0xffffffff
		regs[34] = uint64(0x0)
		dyn += 5
		readSlots += 6
		writes += 5
		goto B41
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
		regs[30] = (regs[6] + regs[27]) & 0xffffffff
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
		regs[31] = (regs[30] * uint64(0x10)) & 0xffffffff
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
		regs[32] = (regs[16] + regs[27]) & 0xffffffff
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
		regs[33] = (regs[32] * uint64(0x10)) & 0xffffffff
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
		regs[34] = uint64(0x0)
		writes++
		goto B41
	}
B41:
	{
		if lim-dyn < 3 {
			goto S41
		}
		regs[35] = boolBit(int64(int32(regs[34])) < int64(4))
		regs[36] = boolBit(regs[35] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[36] != 0 {
			goto B63
		}
		goto B44
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
		regs[35] = boolBit(int64(int32(regs[34])) < int64(4))
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
		regs[36] = boolBit(regs[35] == uint64(0x0))
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
		if regs[36] != 0 {
			goto B63
		}
		goto B44
	}
B44:
	{
		if lim-dyn < 19 {
			goto S44
		}
		regs[37] = (regs[7] + regs[34]) & 0xffffffff
		regs[38] = (regs[31] + regs[37]) & 0xffffffff
		regs[39] = regs[38] * uint64(0x1)
		regs[40] = uint64(0x10000000) + regs[39]
		v48, ok48 := m.flatLoad8(regs[40])
		if !ok48 {
			var t48 TrapKind
			if v48, t48 = m.load(regs[40], 1); t48 != TrapNone {
				dyn += 5
				readSlots += 7
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
		regs[41] = v48
		regs[42] = (regs[17] + regs[34]) & 0xffffffff
		regs[43] = (regs[33] + regs[42]) & 0xffffffff
		regs[44] = regs[43] * uint64(0x1)
		regs[45] = uint64(0x10000100) + regs[44]
		v53, ok53 := m.flatLoad8(regs[45])
		if !ok53 {
			var t53 TrapKind
			if v53, t53 = m.load(regs[45], 1); t53 != TrapNone {
				dyn += 10
				readSlots += 14
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t53)
				return kernHalt
			}
		}
		regs[46] = v53
		regs[47] = (regs[41] - regs[46]) & 0xffffffff
		regs[48] = boolBit(int64(int32(regs[47])) < int64(0))
		regs[49] = (uint64(0x0) - regs[47]) & 0xffffffff
		if regs[48] != 0 {
			regs[50] = regs[49]
		} else {
			regs[50] = regs[47]
		}
		regs[51] = (regs[26] + regs[50]) & 0xffffffff
		regs[26] = regs[51]
		regs[52] = (regs[34] + uint64(0x1)) & 0xffffffff
		regs[34] = regs[52]
		dyn += 19
		readSlots += 26
		writes += 18
		goto B41
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
		regs[37] = (regs[7] + regs[34]) & 0xffffffff
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
		regs[38] = (regs[31] + regs[37]) & 0xffffffff
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
		regs[39] = regs[38] * uint64(0x1)
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
		regs[40] = uint64(0x10000000) + regs[39]
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
		v48, ok48 := m.flatLoad8(regs[40])
		if !ok48 {
			var t48 TrapKind
			if v48, t48 = m.load(regs[40], 1); t48 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
		regs[41] = v48
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
		readSlots += 2
		regs[42] = (regs[17] + regs[34]) & 0xffffffff
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
		readSlots += 2
		regs[43] = (regs[33] + regs[42]) & 0xffffffff
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
		regs[44] = regs[43] * uint64(0x1)
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
		regs[45] = uint64(0x10000100) + regs[44]
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
		v53, ok53 := m.flatLoad8(regs[45])
		if !ok53 {
			var t53 TrapKind
			if v53, t53 = m.load(regs[45], 1); t53 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t53)
				return kernHalt
			}
		}
		regs[46] = v53
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
		readSlots += 2
		regs[47] = (regs[41] - regs[46]) & 0xffffffff
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
		regs[48] = boolBit(int64(int32(regs[47])) < int64(0))
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
		readSlots += 1
		regs[49] = (uint64(0x0) - regs[47]) & 0xffffffff
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
		readSlots += 3
		if regs[48] != 0 {
			regs[50] = regs[49]
		} else {
			regs[50] = regs[47]
		}
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
		readSlots += 2
		regs[51] = (regs[26] + regs[50]) & 0xffffffff
		writes++
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
		regs[26] = regs[51]
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
		regs[52] = (regs[34] + uint64(0x1)) & 0xffffffff
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
		regs[34] = regs[52]
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
		goto B41
	}
B63:
	{
		if lim-dyn < 3 {
			goto S63
		}
		regs[53] = (regs[27] + uint64(0x1)) & 0xffffffff
		regs[27] = regs[53]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B33
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
		regs[53] = (regs[27] + uint64(0x1)) & 0xffffffff
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
		regs[27] = regs[53]
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
		goto B33
	}
B66:
	{
		if lim-dyn < 3 {
			goto S66
		}
		regs[54] = boolBit(int64(int32(regs[26])) < int64(int32(regs[8])))
		regs[55] = boolBit(regs[54] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[55] != 0 {
			goto B75
		}
		goto B69
	}
S66:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 66
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[54] = boolBit(int64(int32(regs[26])) < int64(int32(regs[8])))
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
		regs[55] = boolBit(regs[54] == uint64(0x0))
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
		if regs[55] != 0 {
			goto B75
		}
		goto B69
	}
B69:
	{
		if lim-dyn < 6 {
			goto S69
		}
		regs[8] = regs[26]
		regs[56] = (regs[10] + uint64(0x1)) & 0xffffffff
		regs[57] = (regs[56] * uint64(0x3)) & 0xffffffff
		regs[58] = (regs[13] + uint64(0x1)) & 0xffffffff
		regs[59] = (regs[57] + regs[58]) & 0xffffffff
		regs[9] = regs[59]
		dyn += 6
		readSlots += 7
		writes += 6
		goto B75
	}
S69:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 69
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[8] = regs[26]
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
		regs[56] = (regs[10] + uint64(0x1)) & 0xffffffff
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
		regs[57] = (regs[56] * uint64(0x3)) & 0xffffffff
		writes++
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
		regs[58] = (regs[13] + uint64(0x1)) & 0xffffffff
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
		readSlots += 2
		regs[59] = (regs[57] + regs[58]) & 0xffffffff
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
		readSlots += 1
		regs[9] = regs[59]
		writes++
		goto B75
	}
B75:
	{
		if lim-dyn < 3 {
			goto S75
		}
		regs[60] = (regs[13] + uint64(0x1)) & 0xffffffff
		regs[13] = regs[60]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B17
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
		regs[60] = (regs[13] + uint64(0x1)) & 0xffffffff
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
		regs[13] = regs[60]
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
		goto B17
	}
B78:
	{
		if lim-dyn < 3 {
			goto S78
		}
		regs[61] = (regs[10] + uint64(0x1)) & 0xffffffff
		regs[10] = regs[61]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B13
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
		regs[61] = (regs[10] + uint64(0x1)) & 0xffffffff
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
		regs[10] = regs[61]
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
		goto B13
	}
B81:
	{
		if lim-dyn < 5 {
			goto S81
		}
		if !m.outAppend((regs[8] & 0xffffffff), 4) {
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
			fr.pc = 82
			return kernEvent
		}
		if !m.outAppend((regs[9] & 0xffffffff), 4) {
			dyn += 2
			readSlots += 2
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 2
			readSlots += 2
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 83
			return kernEvent
		}
		regs[62] = (regs[3] + uint64(0x1)) & 0xffffffff
		regs[3] = regs[62]
		dyn += 5
		readSlots += 4
		writes += 2
		goto B5
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
		if !m.outAppend((regs[8] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 82
			return kernEvent
		}
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
		if !m.outAppend((regs[9] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 83
			return kernEvent
		}
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
		regs[62] = (regs[3] + uint64(0x1)) & 0xffffffff
		writes++
	}
S84:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 84
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[3] = regs[62]
		writes++
	}
S85:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 85
			return kernHorizon
		}
		dyn++
		goto B5
	}
B86:
	{
		if lim-dyn < 3 {
			goto S86
		}
		regs[63] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[63]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B1
	}
S86:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 86
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[63] = (regs[0] + uint64(0x1)) & 0xffffffff
		writes++
	}
S87:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 87
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[0] = regs[63]
		writes++
	}
S88:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 88
			return kernHorizon
		}
		dyn++
		goto B1
	}
B89:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 89
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
