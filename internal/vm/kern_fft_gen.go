// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "FFT" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

import (
	"math"
	"multiflip/internal/ir"
)

func init() {
	registerKernel("FFT", 0xa669573bac0cc2b2, []kernFn{kernFFTF0})
}

// kernFFTF0 compiles IR function 0 (main): 132 instructions, 18 blocks.
func kernFFTF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 95 {
		return kernBail
	}
	regs := fr.regs[:95:95]
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
		goto B39
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
		goto B55
	case 56:
		goto S56
	case 57:
		goto S57
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
		goto B65
	case 66:
		goto S66
	case 67:
		goto S67
	case 68:
		goto B68
	case 69:
		goto B69
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
		goto S75
	case 76:
		goto S76
	case 77:
		goto S77
	case 78:
		goto S78
	case 79:
		goto S79
	case 80:
		goto S80
	case 81:
		goto S81
	case 82:
		goto S82
	case 83:
		goto S83
	case 84:
		goto S84
	case 85:
		goto S85
	case 86:
		goto S86
	case 87:
		goto S87
	case 88:
		goto S88
	case 89:
		goto S89
	case 90:
		goto S90
	case 91:
		goto S91
	case 92:
		goto S92
	case 93:
		goto S93
	case 94:
		goto S94
	case 95:
		goto S95
	case 96:
		goto S96
	case 97:
		goto S97
	case 98:
		goto S98
	case 99:
		goto S99
	case 100:
		goto S100
	case 101:
		goto S101
	case 102:
		goto S102
	case 103:
		goto S103
	case 104:
		goto S104
	case 105:
		goto S105
	case 106:
		goto S106
	case 107:
		goto S107
	case 108:
		goto S108
	case 109:
		goto S109
	case 110:
		goto B110
	case 111:
		goto S111
	case 112:
		goto S112
	case 113:
		goto B113
	case 114:
		goto S114
	case 115:
		goto S115
	case 116:
		goto B116
	case 117:
		goto B117
	case 118:
		goto S118
	case 119:
		goto S119
	case 120:
		goto B120
	case 121:
		goto S121
	case 122:
		goto S122
	case 123:
		goto S123
	case 124:
		goto S124
	case 125:
		goto S125
	case 126:
		goto S126
	case 127:
		goto S127
	case 128:
		goto S128
	case 129:
		goto S129
	case 130:
		goto S130
	case 131:
		goto B131
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(32))
		regs[2] = boolBit(regs[1] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[2] != 0 {
			goto B58
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(32))
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
			goto B58
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 35 {
			goto S4
		}
		regs[3] = uint64(0x0)
		regs[4] = regs[0]
		regs[5] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
		regs[6] = (regs[4] & uint64(0x1)) & 0xffffffff
		regs[7] = (regs[5] | regs[6]) & 0xffffffff
		regs[3] = regs[7]
		regs[8] = (regs[4] & 0xffffffff) >> 1
		regs[4] = regs[8]
		regs[9] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
		regs[10] = (regs[4] & uint64(0x1)) & 0xffffffff
		regs[11] = (regs[9] | regs[10]) & 0xffffffff
		regs[3] = regs[11]
		regs[12] = (regs[4] & 0xffffffff) >> 1
		regs[4] = regs[12]
		regs[13] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
		regs[14] = (regs[4] & uint64(0x1)) & 0xffffffff
		regs[15] = (regs[13] | regs[14]) & 0xffffffff
		regs[3] = regs[15]
		regs[16] = (regs[4] & 0xffffffff) >> 1
		regs[4] = regs[16]
		regs[17] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
		regs[18] = (regs[4] & uint64(0x1)) & 0xffffffff
		regs[19] = (regs[17] | regs[18]) & 0xffffffff
		regs[3] = regs[19]
		regs[20] = (regs[4] & 0xffffffff) >> 1
		regs[4] = regs[20]
		regs[21] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
		regs[22] = (regs[4] & uint64(0x1)) & 0xffffffff
		regs[23] = (regs[21] | regs[22]) & 0xffffffff
		regs[3] = regs[23]
		regs[24] = (regs[4] & 0xffffffff) >> 1
		regs[4] = regs[24]
		regs[25] = boolBit((regs[0] & 0xffffffff) < (regs[3] & 0xffffffff))
		regs[26] = boolBit(regs[25] == uint64(0x0))
		dyn += 35
		readSlots += 40
		writes += 34
		if regs[26] != 0 {
			goto B55
		}
		goto B39
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
		regs[4] = regs[0]
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
		regs[5] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
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
		regs[6] = (regs[4] & uint64(0x1)) & 0xffffffff
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
		regs[7] = (regs[5] | regs[6]) & 0xffffffff
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
		regs[3] = regs[7]
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
		regs[8] = (regs[4] & 0xffffffff) >> 1
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
		regs[4] = regs[8]
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
		regs[9] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
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
		regs[10] = (regs[4] & uint64(0x1)) & 0xffffffff
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
		regs[11] = (regs[9] | regs[10]) & 0xffffffff
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
		regs[3] = regs[11]
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
		regs[12] = (regs[4] & 0xffffffff) >> 1
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
		regs[4] = regs[12]
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
		regs[13] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
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
		regs[14] = (regs[4] & uint64(0x1)) & 0xffffffff
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
		readSlots += 2
		regs[15] = (regs[13] | regs[14]) & 0xffffffff
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
		regs[3] = regs[15]
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
		regs[16] = (regs[4] & 0xffffffff) >> 1
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
		regs[4] = regs[16]
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
		regs[17] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
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
		regs[18] = (regs[4] & uint64(0x1)) & 0xffffffff
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
		regs[19] = (regs[17] | regs[18]) & 0xffffffff
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
		regs[3] = regs[19]
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
		regs[20] = (regs[4] & 0xffffffff) >> 1
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
		regs[4] = regs[20]
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
		regs[21] = ((regs[3] & 0xffffffff) << 1) & 0xffffffff
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
		regs[22] = (regs[4] & uint64(0x1)) & 0xffffffff
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
		regs[23] = (regs[21] | regs[22]) & 0xffffffff
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
		regs[3] = regs[23]
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
		regs[24] = (regs[4] & 0xffffffff) >> 1
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
		regs[4] = regs[24]
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
		regs[25] = boolBit((regs[0] & 0xffffffff) < (regs[3] & 0xffffffff))
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
		regs[26] = boolBit(regs[25] == uint64(0x0))
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
		if regs[26] != 0 {
			goto B55
		}
		goto B39
	}
B39:
	{
		if lim-dyn < 16 {
			goto S39
		}
		regs[27] = regs[0] * uint64(0x8)
		regs[28] = uint64(0x10000000) + regs[27]
		regs[29] = regs[3] * uint64(0x8)
		regs[30] = uint64(0x10000000) + regs[29]
		regs[31] = regs[0] * uint64(0x8)
		regs[32] = uint64(0x10000100) + regs[31]
		regs[33] = regs[3] * uint64(0x8)
		regs[34] = uint64(0x10000100) + regs[33]
		v47, ok47 := m.flatLoad64(regs[28])
		if !ok47 {
			var t47 TrapKind
			if v47, t47 = m.load(regs[28], 8); t47 != TrapNone {
				dyn += 9
				readSlots += 9
				writes += 8
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t47)
				return kernHalt
			}
		}
		regs[35] = v47
		v48, ok48 := m.flatLoad64(regs[30])
		if !ok48 {
			var t48 TrapKind
			if v48, t48 = m.load(regs[30], 8); t48 != TrapNone {
				dyn += 10
				readSlots += 10
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
		regs[36] = v48
		if !m.flatStore64(regs[28], uint64(regs[36])) {
			if t49 := m.store(regs[28], 8, regs[36]); t49 != TrapNone {
				dyn += 11
				readSlots += 12
				writes += 10
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t49)
				return kernHalt
			}
		}
		if !m.flatStore64(regs[30], uint64(regs[35])) {
			if t50 := m.store(regs[30], 8, regs[35]); t50 != TrapNone {
				dyn += 12
				readSlots += 14
				writes += 10
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t50)
				return kernHalt
			}
		}
		v51, ok51 := m.flatLoad64(regs[32])
		if !ok51 {
			var t51 TrapKind
			if v51, t51 = m.load(regs[32], 8); t51 != TrapNone {
				dyn += 13
				readSlots += 15
				writes += 10
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t51)
				return kernHalt
			}
		}
		regs[37] = v51
		v52, ok52 := m.flatLoad64(regs[34])
		if !ok52 {
			var t52 TrapKind
			if v52, t52 = m.load(regs[34], 8); t52 != TrapNone {
				dyn += 14
				readSlots += 16
				writes += 11
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t52)
				return kernHalt
			}
		}
		regs[38] = v52
		if !m.flatStore64(regs[32], uint64(regs[38])) {
			if t53 := m.store(regs[32], 8, regs[38]); t53 != TrapNone {
				dyn += 15
				readSlots += 18
				writes += 12
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t53)
				return kernHalt
			}
		}
		if !m.flatStore64(regs[34], uint64(regs[37])) {
			if t54 := m.store(regs[34], 8, regs[37]); t54 != TrapNone {
				dyn += 16
				readSlots += 20
				writes += 12
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t54)
				return kernHalt
			}
		}
		dyn += 16
		readSlots += 20
		writes += 12
		goto B55
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
		regs[27] = regs[0] * uint64(0x8)
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
		regs[28] = uint64(0x10000000) + regs[27]
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
		regs[29] = regs[3] * uint64(0x8)
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
		regs[30] = uint64(0x10000000) + regs[29]
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
		regs[31] = regs[0] * uint64(0x8)
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
		regs[32] = uint64(0x10000100) + regs[31]
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
		regs[33] = regs[3] * uint64(0x8)
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
		regs[34] = uint64(0x10000100) + regs[33]
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
		v47, ok47 := m.flatLoad64(regs[28])
		if !ok47 {
			var t47 TrapKind
			if v47, t47 = m.load(regs[28], 8); t47 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t47)
				return kernHalt
			}
		}
		regs[35] = v47
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
		v48, ok48 := m.flatLoad64(regs[30])
		if !ok48 {
			var t48 TrapKind
			if v48, t48 = m.load(regs[30], 8); t48 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t48)
				return kernHalt
			}
		}
		regs[36] = v48
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
		if !m.flatStore64(regs[28], uint64(regs[36])) {
			if t49 := m.store(regs[28], 8, regs[36]); t49 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t49)
				return kernHalt
			}
		}
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
		if !m.flatStore64(regs[30], uint64(regs[35])) {
			if t50 := m.store(regs[30], 8, regs[35]); t50 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t50)
				return kernHalt
			}
		}
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
		v51, ok51 := m.flatLoad64(regs[32])
		if !ok51 {
			var t51 TrapKind
			if v51, t51 = m.load(regs[32], 8); t51 != TrapNone {
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
		v52, ok52 := m.flatLoad64(regs[34])
		if !ok52 {
			var t52 TrapKind
			if v52, t52 = m.load(regs[34], 8); t52 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t52)
				return kernHalt
			}
		}
		regs[38] = v52
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
		readSlots += 2
		if !m.flatStore64(regs[32], uint64(regs[38])) {
			if t53 := m.store(regs[32], 8, regs[38]); t53 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t53)
				return kernHalt
			}
		}
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
		if !m.flatStore64(regs[34], uint64(regs[37])) {
			if t54 := m.store(regs[34], 8, regs[37]); t54 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t54)
				return kernHalt
			}
		}
		goto B55
	}
B55:
	{
		if lim-dyn < 3 {
			goto S55
		}
		regs[39] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[39]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B1
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
		regs[39] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[39]
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
		goto B1
	}
B58:
	{
		if lim-dyn < 1 {
			goto S58
		}
		regs[40] = uint64(0x2)
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
		regs[40] = uint64(0x2)
		writes++
		goto B59
	}
B59:
	{
		if lim-dyn < 3 {
			goto S59
		}
		regs[41] = boolBit((regs[40] & 0xffffffff) <= uint64(0x20))
		regs[42] = boolBit(regs[41] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[42] != 0 {
			goto B116
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
		regs[41] = boolBit((regs[40] & 0xffffffff) <= uint64(0x20))
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
		regs[42] = boolBit(regs[41] == uint64(0x0))
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
		if regs[42] != 0 {
			goto B116
		}
		goto B62
	}
B62:
	{
		if lim-dyn < 3 {
			goto S62
		}
		q62, t62 := intDiv(ir.OpUDiv, ir.W32, (regs[40] & 0xffffffff), uint64(0x2))
		if t62 != TrapNone {
			dyn += 1
			readSlots += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t62)
			return kernHalt
		}
		regs[43] = (q62) & 0xffffffff
		q63, t63 := intDiv(ir.OpUDiv, ir.W32, uint64(0x20), (regs[40] & 0xffffffff))
		if t63 != TrapNone {
			dyn += 2
			readSlots += 2
			writes += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t63)
			return kernHalt
		}
		regs[44] = (q63) & 0xffffffff
		regs[45] = uint64(0x0)
		dyn += 3
		readSlots += 2
		writes += 3
		goto B65
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
		q62, t62 := intDiv(ir.OpUDiv, ir.W32, (regs[40] & 0xffffffff), uint64(0x2))
		if t62 != TrapNone {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t62)
			return kernHalt
		}
		regs[43] = (q62) & 0xffffffff
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
		q63, t63 := intDiv(ir.OpUDiv, ir.W32, uint64(0x20), (regs[40] & 0xffffffff))
		if t63 != TrapNone {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t63)
			return kernHalt
		}
		regs[44] = (q63) & 0xffffffff
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
		regs[45] = uint64(0x0)
		writes++
		goto B65
	}
B65:
	{
		if lim-dyn < 3 {
			goto S65
		}
		regs[46] = boolBit((regs[45] & 0xffffffff) < uint64(0x20))
		regs[47] = boolBit(regs[46] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[47] != 0 {
			goto B113
		}
		goto B68
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
		regs[46] = boolBit((regs[45] & 0xffffffff) < uint64(0x20))
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
		regs[47] = boolBit(regs[46] == uint64(0x0))
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
		if regs[47] != 0 {
			goto B113
		}
		goto B68
	}
B68:
	{
		if lim-dyn < 1 {
			goto S68
		}
		regs[48] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B69
	}
S68:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 68
			return kernHorizon
		}
		dyn++
		regs[48] = uint64(0x0)
		writes++
		goto B69
	}
B69:
	{
		if lim-dyn < 3 {
			goto S69
		}
		regs[49] = boolBit(int64(int32(regs[48])) < int64(int32(regs[43])))
		regs[50] = boolBit(regs[49] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[50] != 0 {
			goto B110
		}
		goto B72
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
		regs[49] = boolBit(int64(int32(regs[48])) < int64(int32(regs[43])))
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
		regs[50] = boolBit(regs[49] == uint64(0x0))
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
		if regs[50] != 0 {
			goto B110
		}
		goto B72
	}
B72:
	{
		if lim-dyn < 38 {
			goto S72
		}
		regs[51] = (regs[48] * regs[44]) & 0xffffffff
		regs[52] = regs[51] * uint64(0x8)
		regs[53] = uint64(0x10000200) + regs[52]
		v75, ok75 := m.flatLoad64(regs[53])
		if !ok75 {
			var t75 TrapKind
			if v75, t75 = m.load(regs[53], 8); t75 != TrapNone {
				dyn += 4
				readSlots += 5
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t75)
				return kernHalt
			}
		}
		regs[54] = v75
		regs[55] = regs[51] * uint64(0x8)
		regs[56] = uint64(0x10000280) + regs[55]
		v78, ok78 := m.flatLoad64(regs[56])
		if !ok78 {
			var t78 TrapKind
			if v78, t78 = m.load(regs[56], 8); t78 != TrapNone {
				dyn += 7
				readSlots += 8
				writes += 6
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t78)
				return kernHalt
			}
		}
		regs[57] = v78
		regs[58] = (regs[45] + regs[48]) & 0xffffffff
		regs[59] = (regs[58] + regs[43]) & 0xffffffff
		regs[60] = regs[58] * uint64(0x8)
		regs[61] = uint64(0x10000000) + regs[60]
		regs[62] = regs[58] * uint64(0x8)
		regs[63] = uint64(0x10000100) + regs[62]
		regs[64] = regs[59] * uint64(0x8)
		regs[65] = uint64(0x10000000) + regs[64]
		regs[66] = regs[59] * uint64(0x8)
		regs[67] = uint64(0x10000100) + regs[66]
		v89, ok89 := m.flatLoad64(regs[65])
		if !ok89 {
			var t89 TrapKind
			if v89, t89 = m.load(regs[65], 8); t89 != TrapNone {
				dyn += 18
				readSlots += 21
				writes += 17
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t89)
				return kernHalt
			}
		}
		regs[68] = v89
		v90, ok90 := m.flatLoad64(regs[67])
		if !ok90 {
			var t90 TrapKind
			if v90, t90 = m.load(regs[67], 8); t90 != TrapNone {
				dyn += 19
				readSlots += 22
				writes += 18
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t90)
				return kernHalt
			}
		}
		regs[69] = v90
		regs[70] = math.Float64bits(math.Float64frombits(regs[68]) * math.Float64frombits(regs[54]))
		regs[71] = math.Float64bits(math.Float64frombits(regs[69]) * math.Float64frombits(regs[57]))
		regs[72] = math.Float64bits(math.Float64frombits(regs[70]) - math.Float64frombits(regs[71]))
		regs[73] = math.Float64bits(math.Float64frombits(regs[68]) * math.Float64frombits(regs[57]))
		regs[74] = math.Float64bits(math.Float64frombits(regs[69]) * math.Float64frombits(regs[54]))
		regs[75] = math.Float64bits(math.Float64frombits(regs[73]) + math.Float64frombits(regs[74]))
		v97, ok97 := m.flatLoad64(regs[61])
		if !ok97 {
			var t97 TrapKind
			if v97, t97 = m.load(regs[61], 8); t97 != TrapNone {
				dyn += 26
				readSlots += 35
				writes += 25
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t97)
				return kernHalt
			}
		}
		regs[76] = v97
		v98, ok98 := m.flatLoad64(regs[63])
		if !ok98 {
			var t98 TrapKind
			if v98, t98 = m.load(regs[63], 8); t98 != TrapNone {
				dyn += 27
				readSlots += 36
				writes += 26
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t98)
				return kernHalt
			}
		}
		regs[77] = v98
		regs[78] = math.Float64bits(math.Float64frombits(regs[76]) + math.Float64frombits(regs[72]))
		if !m.flatStore64(regs[61], uint64(regs[78])) {
			if t100 := m.store(regs[61], 8, regs[78]); t100 != TrapNone {
				dyn += 29
				readSlots += 40
				writes += 28
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t100)
				return kernHalt
			}
		}
		regs[79] = math.Float64bits(math.Float64frombits(regs[77]) + math.Float64frombits(regs[75]))
		if !m.flatStore64(regs[63], uint64(regs[79])) {
			if t102 := m.store(regs[63], 8, regs[79]); t102 != TrapNone {
				dyn += 31
				readSlots += 44
				writes += 29
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t102)
				return kernHalt
			}
		}
		regs[80] = math.Float64bits(math.Float64frombits(regs[76]) - math.Float64frombits(regs[72]))
		if !m.flatStore64(regs[65], uint64(regs[80])) {
			if t104 := m.store(regs[65], 8, regs[80]); t104 != TrapNone {
				dyn += 33
				readSlots += 48
				writes += 30
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t104)
				return kernHalt
			}
		}
		regs[81] = math.Float64bits(math.Float64frombits(regs[77]) - math.Float64frombits(regs[75]))
		if !m.flatStore64(regs[67], uint64(regs[81])) {
			if t106 := m.store(regs[67], 8, regs[81]); t106 != TrapNone {
				dyn += 35
				readSlots += 52
				writes += 31
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t106)
				return kernHalt
			}
		}
		regs[82] = (regs[48] + uint64(0x1)) & 0xffffffff
		regs[48] = regs[82]
		dyn += 38
		readSlots += 54
		writes += 33
		goto B69
	}
S72:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 72
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[51] = (regs[48] * regs[44]) & 0xffffffff
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
		regs[52] = regs[51] * uint64(0x8)
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
		regs[53] = uint64(0x10000200) + regs[52]
		writes++
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
		v75, ok75 := m.flatLoad64(regs[53])
		if !ok75 {
			var t75 TrapKind
			if v75, t75 = m.load(regs[53], 8); t75 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t75)
				return kernHalt
			}
		}
		regs[54] = v75
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
		regs[55] = regs[51] * uint64(0x8)
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
		readSlots += 1
		regs[56] = uint64(0x10000280) + regs[55]
		writes++
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
		v78, ok78 := m.flatLoad64(regs[56])
		if !ok78 {
			var t78 TrapKind
			if v78, t78 = m.load(regs[56], 8); t78 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t78)
				return kernHalt
			}
		}
		regs[57] = v78
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
		readSlots += 2
		regs[58] = (regs[45] + regs[48]) & 0xffffffff
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
		readSlots += 2
		regs[59] = (regs[58] + regs[43]) & 0xffffffff
		writes++
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
		regs[60] = regs[58] * uint64(0x8)
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
		regs[61] = uint64(0x10000000) + regs[60]
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
		regs[62] = regs[58] * uint64(0x8)
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
		regs[63] = uint64(0x10000100) + regs[62]
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
		readSlots += 1
		regs[64] = regs[59] * uint64(0x8)
		writes++
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
		regs[65] = uint64(0x10000000) + regs[64]
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
		regs[66] = regs[59] * uint64(0x8)
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
		readSlots += 1
		regs[67] = uint64(0x10000100) + regs[66]
		writes++
	}
S89:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 89
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v89, ok89 := m.flatLoad64(regs[65])
		if !ok89 {
			var t89 TrapKind
			if v89, t89 = m.load(regs[65], 8); t89 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t89)
				return kernHalt
			}
		}
		regs[68] = v89
		writes++
	}
S90:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 90
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v90, ok90 := m.flatLoad64(regs[67])
		if !ok90 {
			var t90 TrapKind
			if v90, t90 = m.load(regs[67], 8); t90 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t90)
				return kernHalt
			}
		}
		regs[69] = v90
		writes++
	}
S91:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 91
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[70] = math.Float64bits(math.Float64frombits(regs[68]) * math.Float64frombits(regs[54]))
		writes++
	}
S92:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 92
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[71] = math.Float64bits(math.Float64frombits(regs[69]) * math.Float64frombits(regs[57]))
		writes++
	}
S93:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 93
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[72] = math.Float64bits(math.Float64frombits(regs[70]) - math.Float64frombits(regs[71]))
		writes++
	}
S94:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 94
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[73] = math.Float64bits(math.Float64frombits(regs[68]) * math.Float64frombits(regs[57]))
		writes++
	}
S95:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 95
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[74] = math.Float64bits(math.Float64frombits(regs[69]) * math.Float64frombits(regs[54]))
		writes++
	}
S96:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 96
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[75] = math.Float64bits(math.Float64frombits(regs[73]) + math.Float64frombits(regs[74]))
		writes++
	}
S97:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 97
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v97, ok97 := m.flatLoad64(regs[61])
		if !ok97 {
			var t97 TrapKind
			if v97, t97 = m.load(regs[61], 8); t97 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t97)
				return kernHalt
			}
		}
		regs[76] = v97
		writes++
	}
S98:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 98
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v98, ok98 := m.flatLoad64(regs[63])
		if !ok98 {
			var t98 TrapKind
			if v98, t98 = m.load(regs[63], 8); t98 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t98)
				return kernHalt
			}
		}
		regs[77] = v98
		writes++
	}
S99:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 99
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[78] = math.Float64bits(math.Float64frombits(regs[76]) + math.Float64frombits(regs[72]))
		writes++
	}
S100:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 100
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore64(regs[61], uint64(regs[78])) {
			if t100 := m.store(regs[61], 8, regs[78]); t100 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t100)
				return kernHalt
			}
		}
	}
S101:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 101
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[79] = math.Float64bits(math.Float64frombits(regs[77]) + math.Float64frombits(regs[75]))
		writes++
	}
S102:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 102
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore64(regs[63], uint64(regs[79])) {
			if t102 := m.store(regs[63], 8, regs[79]); t102 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t102)
				return kernHalt
			}
		}
	}
S103:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 103
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[80] = math.Float64bits(math.Float64frombits(regs[76]) - math.Float64frombits(regs[72]))
		writes++
	}
S104:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 104
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore64(regs[65], uint64(regs[80])) {
			if t104 := m.store(regs[65], 8, regs[80]); t104 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t104)
				return kernHalt
			}
		}
	}
S105:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 105
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[81] = math.Float64bits(math.Float64frombits(regs[77]) - math.Float64frombits(regs[75]))
		writes++
	}
S106:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 106
			return kernHorizon
		}
		dyn++
		readSlots += 2
		if !m.flatStore64(regs[67], uint64(regs[81])) {
			if t106 := m.store(regs[67], 8, regs[81]); t106 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t106)
				return kernHalt
			}
		}
	}
S107:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 107
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[82] = (regs[48] + uint64(0x1)) & 0xffffffff
		writes++
	}
S108:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 108
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[48] = regs[82]
		writes++
	}
S109:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 109
			return kernHorizon
		}
		dyn++
		goto B69
	}
B110:
	{
		if lim-dyn < 3 {
			goto S110
		}
		regs[83] = (regs[45] + regs[40]) & 0xffffffff
		regs[45] = regs[83]
		dyn += 3
		readSlots += 3
		writes += 2
		goto B65
	}
S110:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 110
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[83] = (regs[45] + regs[40]) & 0xffffffff
		writes++
	}
S111:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 111
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[45] = regs[83]
		writes++
	}
S112:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 112
			return kernHorizon
		}
		dyn++
		goto B65
	}
B113:
	{
		if lim-dyn < 3 {
			goto S113
		}
		regs[84] = (regs[40] * uint64(0x2)) & 0xffffffff
		regs[40] = regs[84]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B59
	}
S113:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 113
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[84] = (regs[40] * uint64(0x2)) & 0xffffffff
		writes++
	}
S114:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 114
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[40] = regs[84]
		writes++
	}
S115:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 115
			return kernHorizon
		}
		dyn++
		goto B59
	}
B116:
	{
		if lim-dyn < 1 {
			goto S116
		}
		regs[85] = uint64(0x0)
		dyn += 1
		writes += 1
		goto B117
	}
S116:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 116
			return kernHorizon
		}
		dyn++
		regs[85] = uint64(0x0)
		writes++
		goto B117
	}
B117:
	{
		if lim-dyn < 3 {
			goto S117
		}
		regs[86] = boolBit(int64(int32(regs[85])) < int64(32))
		regs[87] = boolBit(regs[86] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[87] != 0 {
			goto B131
		}
		goto B120
	}
S117:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 117
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[86] = boolBit(int64(int32(regs[85])) < int64(32))
		writes++
	}
S118:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 118
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[87] = boolBit(regs[86] == uint64(0x0))
		writes++
	}
S119:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 119
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[87] != 0 {
			goto B131
		}
		goto B120
	}
B120:
	{
		if lim-dyn < 11 {
			goto S120
		}
		regs[88] = regs[85] * uint64(0x8)
		regs[89] = uint64(0x10000000) + regs[88]
		v122, ok122 := m.flatLoad64(regs[89])
		if !ok122 {
			var t122 TrapKind
			if v122, t122 = m.load(regs[89], 8); t122 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t122)
				return kernHalt
			}
		}
		regs[90] = v122
		if !m.outAppend(regs[90], 8) {
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
			fr.pc = 124
			return kernEvent
		}
		regs[91] = regs[85] * uint64(0x8)
		regs[92] = uint64(0x10000100) + regs[91]
		v126, ok126 := m.flatLoad64(regs[92])
		if !ok126 {
			var t126 TrapKind
			if v126, t126 = m.load(regs[92], 8); t126 != TrapNone {
				dyn += 7
				readSlots += 7
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t126)
				return kernHalt
			}
		}
		regs[93] = v126
		if !m.outAppend(regs[93], 8) {
			dyn += 8
			readSlots += 8
			writes += 6
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 8
			readSlots += 8
			writes += 6
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 128
			return kernEvent
		}
		regs[94] = (regs[85] + uint64(0x1)) & 0xffffffff
		regs[85] = regs[94]
		dyn += 11
		readSlots += 10
		writes += 8
		goto B117
	}
S120:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 120
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[88] = regs[85] * uint64(0x8)
		writes++
	}
S121:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 121
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[89] = uint64(0x10000000) + regs[88]
		writes++
	}
S122:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 122
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v122, ok122 := m.flatLoad64(regs[89])
		if !ok122 {
			var t122 TrapKind
			if v122, t122 = m.load(regs[89], 8); t122 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t122)
				return kernHalt
			}
		}
		regs[90] = v122
		writes++
	}
S123:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 123
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[90], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 124
			return kernEvent
		}
	}
S124:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 124
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[91] = regs[85] * uint64(0x8)
		writes++
	}
S125:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 125
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[92] = uint64(0x10000100) + regs[91]
		writes++
	}
S126:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 126
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v126, ok126 := m.flatLoad64(regs[92])
		if !ok126 {
			var t126 TrapKind
			if v126, t126 = m.load(regs[92], 8); t126 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t126)
				return kernHalt
			}
		}
		regs[93] = v126
		writes++
	}
S127:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 127
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend(regs[93], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 128
			return kernEvent
		}
	}
S128:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 128
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[94] = (regs[85] + uint64(0x1)) & 0xffffffff
		writes++
	}
S129:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 129
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[85] = regs[94]
		writes++
	}
S130:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 130
			return kernHorizon
		}
		dyn++
		goto B117
	}
B131:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 131
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
