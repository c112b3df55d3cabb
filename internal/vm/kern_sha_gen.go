// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "sha" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

import (
	"multiflip/internal/ir"
)

func init() {
	registerKernel("sha", 0x63e8abf5c60392f8, []kernFn{kernShaF0})
}

// kernShaF0 compiles IR function 0 (main): 172 instructions, 24 blocks.
func kernShaF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 117 {
		return kernBail
	}
	regs := fr.regs[:117:117]
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
		goto B28
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
		goto B34
	case 35:
		goto S35
	case 36:
		goto S36
	case 37:
		goto B37
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
		goto S65
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
		goto S72
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
		goto B87
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
		goto B93
	case 94:
		goto S94
	case 95:
		goto S95
	case 96:
		goto B96
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
		goto B102
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
		goto B108
	case 109:
		goto S109
	case 110:
		goto S110
	case 111:
		goto B111
	case 112:
		goto S112
	case 113:
		goto S113
	case 114:
		goto S114
	case 115:
		goto B115
	case 116:
		goto S116
	case 117:
		goto S117
	case 118:
		goto B118
	case 119:
		goto S119
	case 120:
		goto S120
	case 121:
		goto S121
	case 122:
		goto S122
	case 123:
		goto S123
	case 124:
		goto S124
	case 125:
		goto B125
	case 126:
		goto S126
	case 127:
		goto S127
	case 128:
		goto B128
	case 129:
		goto S129
	case 130:
		goto S130
	case 131:
		goto S131
	case 132:
		goto B132
	case 133:
		goto S133
	case 134:
		goto S134
	case 135:
		goto S135
	case 136:
		goto S136
	case 137:
		goto S137
	case 138:
		goto S138
	case 139:
		goto S139
	case 140:
		goto S140
	case 141:
		goto S141
	case 142:
		goto S142
	case 143:
		goto S143
	case 144:
		goto S144
	case 145:
		goto S145
	case 146:
		goto S146
	case 147:
		goto S147
	case 148:
		goto S148
	case 149:
		goto S149
	case 150:
		goto S150
	case 151:
		goto S151
	case 152:
		goto S152
	case 153:
		goto B153
	case 154:
		goto S154
	case 155:
		goto S155
	case 156:
		goto S156
	case 157:
		goto S157
	case 158:
		goto S158
	case 159:
		goto S159
	case 160:
		goto S160
	case 161:
		goto S161
	case 162:
		goto S162
	case 163:
		goto S163
	case 164:
		goto S164
	case 165:
		goto S165
	case 166:
		goto B166
	case 167:
		goto S167
	case 168:
		goto S168
	case 169:
		goto S169
	case 170:
		goto S170
	case 171:
		goto S171
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
			goto B13
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 9 {
			goto S4
		}
		regs[3] = regs[0] * uint64(0x1)
		regs[4] = uint64(0x10000100) + regs[3]
		regs[5] = regs[0] * uint64(0x1)
		regs[6] = uint64(0x10000000) + regs[5]
		v8, ok8 := m.flatLoad8(regs[6])
		if !ok8 {
			var t8 TrapKind
			if v8, t8 = m.load(regs[6], 1); t8 != TrapNone {
				dyn += 5
				readSlots += 5
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t8)
				return kernHalt
			}
		}
		regs[7] = v8
		if !m.flatStore8(regs[4], uint8(regs[7])) {
			if t9 := m.store(regs[4], 1, regs[7]); t9 != TrapNone {
				dyn += 6
				readSlots += 7
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t9)
				return kernHalt
			}
		}
		regs[8] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[8]
		dyn += 9
		readSlots += 9
		writes += 7
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
		regs[3] = regs[0] * uint64(0x1)
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
		regs[4] = uint64(0x10000100) + regs[3]
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
		regs[5] = regs[0] * uint64(0x1)
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
		regs[6] = uint64(0x10000000) + regs[5]
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
		v8, ok8 := m.flatLoad8(regs[6])
		if !ok8 {
			var t8 TrapKind
			if v8, t8 = m.load(regs[6], 1); t8 != TrapNone {
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
		readSlots += 2
		if !m.flatStore8(regs[4], uint8(regs[7])) {
			if t9 := m.store(regs[4], 1, regs[7]); t9 != TrapNone {
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
		regs[8] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[8]
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
		if lim-dyn < 15 {
			goto S13
		}
		if !m.flatStore8(uint64(0x10000200), 0x80) {
			if t13 := m.store(uint64(0x10000200), 1, uint64(0x80)); t13 != TrapNone {
				dyn += 1
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t13)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x10000238), 0x0) {
			if t14 := m.store(uint64(0x10000238), 1, uint64(0x0)); t14 != TrapNone {
				dyn += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t14)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x10000239), 0x0) {
			if t15 := m.store(uint64(0x10000239), 1, uint64(0x0)); t15 != TrapNone {
				dyn += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t15)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x1000023a), 0x0) {
			if t16 := m.store(uint64(0x1000023a), 1, uint64(0x0)); t16 != TrapNone {
				dyn += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t16)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x1000023b), 0x0) {
			if t17 := m.store(uint64(0x1000023b), 1, uint64(0x0)); t17 != TrapNone {
				dyn += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t17)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x1000023c), 0x0) {
			if t18 := m.store(uint64(0x1000023c), 1, uint64(0x0)); t18 != TrapNone {
				dyn += 6
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t18)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x1000023d), 0x0) {
			if t19 := m.store(uint64(0x1000023d), 1, uint64(0x0)); t19 != TrapNone {
				dyn += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x1000023e), 0x8) {
			if t20 := m.store(uint64(0x1000023e), 1, uint64(0x8)); t20 != TrapNone {
				dyn += 8
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
		if !m.flatStore8(uint64(0x1000023f), 0x0) {
			if t21 := m.store(uint64(0x1000023f), 1, uint64(0x0)); t21 != TrapNone {
				dyn += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t21)
				return kernHalt
			}
		}
		regs[9] = uint64(0x67452301)
		regs[10] = uint64(0xefcdab89)
		regs[11] = uint64(0x98badcfe)
		regs[12] = uint64(0x10325476)
		regs[13] = uint64(0xc3d2e1f0)
		regs[14] = uint64(0x0)
		dyn += 15
		writes += 6
		goto B28
	}
S13:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 13
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x10000200), 0x80) {
			if t13 := m.store(uint64(0x10000200), 1, uint64(0x80)); t13 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t13)
				return kernHalt
			}
		}
	}
S14:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 14
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x10000238), 0x0) {
			if t14 := m.store(uint64(0x10000238), 1, uint64(0x0)); t14 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t14)
				return kernHalt
			}
		}
	}
S15:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 15
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x10000239), 0x0) {
			if t15 := m.store(uint64(0x10000239), 1, uint64(0x0)); t15 != TrapNone {
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
		if !m.flatStore8(uint64(0x1000023a), 0x0) {
			if t16 := m.store(uint64(0x1000023a), 1, uint64(0x0)); t16 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t16)
				return kernHalt
			}
		}
	}
S17:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 17
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x1000023b), 0x0) {
			if t17 := m.store(uint64(0x1000023b), 1, uint64(0x0)); t17 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t17)
				return kernHalt
			}
		}
	}
S18:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 18
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x1000023c), 0x0) {
			if t18 := m.store(uint64(0x1000023c), 1, uint64(0x0)); t18 != TrapNone {
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
		if !m.flatStore8(uint64(0x1000023d), 0x0) {
			if t19 := m.store(uint64(0x1000023d), 1, uint64(0x0)); t19 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
	}
S20:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 20
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x1000023e), 0x8) {
			if t20 := m.store(uint64(0x1000023e), 1, uint64(0x8)); t20 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
	}
S21:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 21
			return kernHorizon
		}
		dyn++
		if !m.flatStore8(uint64(0x1000023f), 0x0) {
			if t21 := m.store(uint64(0x1000023f), 1, uint64(0x0)); t21 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t21)
				return kernHalt
			}
		}
	}
S22:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 22
			return kernHorizon
		}
		dyn++
		regs[9] = uint64(0x67452301)
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
		regs[10] = uint64(0xefcdab89)
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
		regs[11] = uint64(0x98badcfe)
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
		regs[12] = uint64(0x10325476)
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
		regs[13] = uint64(0xc3d2e1f0)
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
		regs[14] = uint64(0x0)
		writes++
		goto B28
	}
B28:
	{
		if lim-dyn < 3 {
			goto S28
		}
		regs[15] = boolBit(int64(int32(regs[14])) < int64(5))
		regs[16] = boolBit(regs[15] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[16] != 0 {
			goto B166
		}
		goto B31
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
		regs[15] = boolBit(int64(int32(regs[14])) < int64(5))
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
		regs[16] = boolBit(regs[15] == uint64(0x0))
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
		if regs[16] != 0 {
			goto B166
		}
		goto B31
	}
B31:
	{
		if lim-dyn < 3 {
			goto S31
		}
		regs[17] = regs[14] * uint64(0x40)
		regs[18] = uint64(0x10000100) + regs[17]
		regs[19] = uint64(0x0)
		dyn += 3
		readSlots += 2
		writes += 3
		goto B34
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
		regs[17] = regs[14] * uint64(0x40)
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
		regs[18] = uint64(0x10000100) + regs[17]
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
		regs[19] = uint64(0x0)
		writes++
		goto B34
	}
B34:
	{
		if lim-dyn < 3 {
			goto S34
		}
		regs[20] = boolBit(int64(int32(regs[19])) < int64(16))
		regs[21] = boolBit(regs[20] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[21] != 0 {
			goto B55
		}
		goto B37
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
		regs[20] = boolBit(int64(int32(regs[19])) < int64(16))
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
		regs[21] = boolBit(regs[20] == uint64(0x0))
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
		if regs[21] != 0 {
			goto B55
		}
		goto B37
	}
B37:
	{
		if lim-dyn < 18 {
			goto S37
		}
		regs[22] = regs[19] * uint64(0x4)
		regs[23] = regs[18] + regs[22]
		v39, ok39 := m.flatLoad8(regs[23])
		if !ok39 {
			var t39 TrapKind
			if v39, t39 = m.load(regs[23], 1); t39 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t39)
				return kernHalt
			}
		}
		regs[24] = v39
		v40, ok40 := m.flatLoad8(regs[23] + 0x1)
		if !ok40 {
			var t40 TrapKind
			if v40, t40 = m.load(regs[23]+0x1, 1); t40 != TrapNone {
				dyn += 4
				readSlots += 5
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t40)
				return kernHalt
			}
		}
		regs[25] = v40
		v41, ok41 := m.flatLoad8(regs[23] + 0x2)
		if !ok41 {
			var t41 TrapKind
			if v41, t41 = m.load(regs[23]+0x2, 1); t41 != TrapNone {
				dyn += 5
				readSlots += 6
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t41)
				return kernHalt
			}
		}
		regs[26] = v41
		v42, ok42 := m.flatLoad8(regs[23] + 0x3)
		if !ok42 {
			var t42 TrapKind
			if v42, t42 = m.load(regs[23]+0x3, 1); t42 != TrapNone {
				dyn += 6
				readSlots += 7
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t42)
				return kernHalt
			}
		}
		regs[27] = v42
		regs[28] = ((regs[24] & 0xffffffff) << 24) & 0xffffffff
		regs[29] = ((regs[25] & 0xffffffff) << 16) & 0xffffffff
		regs[30] = (regs[28] | regs[29]) & 0xffffffff
		regs[31] = ((regs[26] & 0xffffffff) << 8) & 0xffffffff
		regs[32] = (regs[31] | regs[27]) & 0xffffffff
		regs[33] = (regs[30] | regs[32]) & 0xffffffff
		regs[34] = regs[19] * uint64(0x4)
		regs[35] = uint64(0x10000240) + regs[34]
		if !m.flatStore32(regs[35], uint32(regs[33])) {
			if t51 := m.store(regs[35], 4, regs[33]); t51 != TrapNone {
				dyn += 15
				readSlots += 20
				writes += 14
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t51)
				return kernHalt
			}
		}
		regs[36] = (regs[19] + uint64(0x1)) & 0xffffffff
		regs[19] = regs[36]
		dyn += 18
		readSlots += 22
		writes += 16
		goto B34
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
		regs[22] = regs[19] * uint64(0x4)
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
		regs[23] = regs[18] + regs[22]
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
		v39, ok39 := m.flatLoad8(regs[23])
		if !ok39 {
			var t39 TrapKind
			if v39, t39 = m.load(regs[23], 1); t39 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t39)
				return kernHalt
			}
		}
		regs[24] = v39
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
		v40, ok40 := m.flatLoad8(regs[23] + 0x1)
		if !ok40 {
			var t40 TrapKind
			if v40, t40 = m.load(regs[23]+0x1, 1); t40 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t40)
				return kernHalt
			}
		}
		regs[25] = v40
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
		v41, ok41 := m.flatLoad8(regs[23] + 0x2)
		if !ok41 {
			var t41 TrapKind
			if v41, t41 = m.load(regs[23]+0x2, 1); t41 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t41)
				return kernHalt
			}
		}
		regs[26] = v41
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
		v42, ok42 := m.flatLoad8(regs[23] + 0x3)
		if !ok42 {
			var t42 TrapKind
			if v42, t42 = m.load(regs[23]+0x3, 1); t42 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t42)
				return kernHalt
			}
		}
		regs[27] = v42
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
		regs[28] = ((regs[24] & 0xffffffff) << 24) & 0xffffffff
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
		regs[29] = ((regs[25] & 0xffffffff) << 16) & 0xffffffff
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
		regs[30] = (regs[28] | regs[29]) & 0xffffffff
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
		regs[31] = ((regs[26] & 0xffffffff) << 8) & 0xffffffff
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
		readSlots += 2
		regs[32] = (regs[31] | regs[27]) & 0xffffffff
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
		regs[33] = (regs[30] | regs[32]) & 0xffffffff
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
		regs[34] = regs[19] * uint64(0x4)
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
		regs[35] = uint64(0x10000240) + regs[34]
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
		if !m.flatStore32(regs[35], uint32(regs[33])) {
			if t51 := m.store(regs[35], 4, regs[33]); t51 != TrapNone {
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
		regs[36] = (regs[19] + uint64(0x1)) & 0xffffffff
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
		regs[19] = regs[36]
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
		goto B34
	}
B55:
	{
		if lim-dyn < 1 {
			goto S55
		}
		regs[37] = uint64(0x10)
		dyn += 1
		writes += 1
		goto B56
	}
S55:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 55
			return kernHorizon
		}
		dyn++
		regs[37] = uint64(0x10)
		writes++
		goto B56
	}
B56:
	{
		if lim-dyn < 3 {
			goto S56
		}
		regs[38] = boolBit(int64(int32(regs[37])) < int64(80))
		regs[39] = boolBit(regs[38] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[39] != 0 {
			goto B87
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
		regs[38] = boolBit(int64(int32(regs[37])) < int64(80))
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
		regs[39] = boolBit(regs[38] == uint64(0x0))
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
		if regs[39] != 0 {
			goto B87
		}
		goto B59
	}
B59:
	{
		if lim-dyn < 28 {
			goto S59
		}
		regs[40] = (regs[37] - uint64(0x3)) & 0xffffffff
		regs[41] = regs[40] * uint64(0x4)
		regs[42] = uint64(0x10000240) + regs[41]
		v62, ok62 := m.flatLoad32(regs[42])
		if !ok62 {
			var t62 TrapKind
			if v62, t62 = m.load(regs[42], 4); t62 != TrapNone {
				dyn += 4
				readSlots += 4
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t62)
				return kernHalt
			}
		}
		regs[43] = v62
		regs[44] = (regs[37] - uint64(0x8)) & 0xffffffff
		regs[45] = regs[44] * uint64(0x4)
		regs[46] = uint64(0x10000240) + regs[45]
		v66, ok66 := m.flatLoad32(regs[46])
		if !ok66 {
			var t66 TrapKind
			if v66, t66 = m.load(regs[46], 4); t66 != TrapNone {
				dyn += 8
				readSlots += 8
				writes += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t66)
				return kernHalt
			}
		}
		regs[47] = v66
		regs[48] = (regs[43] ^ regs[47]) & 0xffffffff
		regs[49] = (regs[37] - uint64(0xe)) & 0xffffffff
		regs[50] = regs[49] * uint64(0x4)
		regs[51] = uint64(0x10000240) + regs[50]
		v71, ok71 := m.flatLoad32(regs[51])
		if !ok71 {
			var t71 TrapKind
			if v71, t71 = m.load(regs[51], 4); t71 != TrapNone {
				dyn += 13
				readSlots += 14
				writes += 12
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t71)
				return kernHalt
			}
		}
		regs[52] = v71
		regs[53] = (regs[37] - uint64(0x10)) & 0xffffffff
		regs[54] = regs[53] * uint64(0x4)
		regs[55] = uint64(0x10000240) + regs[54]
		v75, ok75 := m.flatLoad32(regs[55])
		if !ok75 {
			var t75 TrapKind
			if v75, t75 = m.load(regs[55], 4); t75 != TrapNone {
				dyn += 17
				readSlots += 18
				writes += 16
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t75)
				return kernHalt
			}
		}
		regs[56] = v75
		regs[57] = (regs[52] ^ regs[56]) & 0xffffffff
		regs[58] = (regs[48] ^ regs[57]) & 0xffffffff
		regs[59] = regs[37] * uint64(0x4)
		regs[60] = uint64(0x10000240) + regs[59]
		regs[61] = ((regs[58] & 0xffffffff) << 1) & 0xffffffff
		regs[62] = (regs[58] & 0xffffffff) >> 31
		regs[63] = (regs[61] | regs[62]) & 0xffffffff
		if !m.flatStore32(regs[60], uint32(regs[63])) {
			if t83 := m.store(regs[60], 4, regs[63]); t83 != TrapNone {
				dyn += 25
				readSlots += 30
				writes += 24
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t83)
				return kernHalt
			}
		}
		regs[64] = (regs[37] + uint64(0x1)) & 0xffffffff
		regs[37] = regs[64]
		dyn += 28
		readSlots += 32
		writes += 26
		goto B56
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
		regs[40] = (regs[37] - uint64(0x3)) & 0xffffffff
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
		regs[41] = regs[40] * uint64(0x4)
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
		regs[42] = uint64(0x10000240) + regs[41]
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
		v62, ok62 := m.flatLoad32(regs[42])
		if !ok62 {
			var t62 TrapKind
			if v62, t62 = m.load(regs[42], 4); t62 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t62)
				return kernHalt
			}
		}
		regs[43] = v62
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
		regs[44] = (regs[37] - uint64(0x8)) & 0xffffffff
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
		regs[45] = regs[44] * uint64(0x4)
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
		regs[46] = uint64(0x10000240) + regs[45]
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
		v66, ok66 := m.flatLoad32(regs[46])
		if !ok66 {
			var t66 TrapKind
			if v66, t66 = m.load(regs[46], 4); t66 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t66)
				return kernHalt
			}
		}
		regs[47] = v66
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
		readSlots += 2
		regs[48] = (regs[43] ^ regs[47]) & 0xffffffff
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
		regs[49] = (regs[37] - uint64(0xe)) & 0xffffffff
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
		readSlots += 1
		regs[50] = regs[49] * uint64(0x4)
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
		regs[51] = uint64(0x10000240) + regs[50]
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
		v71, ok71 := m.flatLoad32(regs[51])
		if !ok71 {
			var t71 TrapKind
			if v71, t71 = m.load(regs[51], 4); t71 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t71)
				return kernHalt
			}
		}
		regs[52] = v71
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
		regs[53] = (regs[37] - uint64(0x10)) & 0xffffffff
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
		regs[54] = regs[53] * uint64(0x4)
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
		regs[55] = uint64(0x10000240) + regs[54]
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
		v75, ok75 := m.flatLoad32(regs[55])
		if !ok75 {
			var t75 TrapKind
			if v75, t75 = m.load(regs[55], 4); t75 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t75)
				return kernHalt
			}
		}
		regs[56] = v75
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
		readSlots += 2
		regs[57] = (regs[52] ^ regs[56]) & 0xffffffff
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
		readSlots += 2
		regs[58] = (regs[48] ^ regs[57]) & 0xffffffff
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
		regs[59] = regs[37] * uint64(0x4)
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
		regs[60] = uint64(0x10000240) + regs[59]
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
		readSlots += 1
		regs[61] = ((regs[58] & 0xffffffff) << 1) & 0xffffffff
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
		regs[62] = (regs[58] & 0xffffffff) >> 31
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
		readSlots += 2
		regs[63] = (regs[61] | regs[62]) & 0xffffffff
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
		readSlots += 2
		if !m.flatStore32(regs[60], uint32(regs[63])) {
			if t83 := m.store(regs[60], 4, regs[63]); t83 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t83)
				return kernHalt
			}
		}
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
		regs[64] = (regs[37] + uint64(0x1)) & 0xffffffff
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
		regs[37] = regs[64]
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
		goto B56
	}
B87:
	{
		if lim-dyn < 6 {
			goto S87
		}
		regs[65] = regs[9]
		regs[66] = regs[10]
		regs[67] = regs[11]
		regs[68] = regs[12]
		regs[69] = regs[13]
		regs[70] = uint64(0x0)
		dyn += 6
		readSlots += 5
		writes += 6
		goto B93
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
		regs[65] = regs[9]
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
		regs[66] = regs[10]
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
		regs[67] = regs[11]
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
		regs[68] = regs[12]
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
		readSlots += 1
		regs[69] = regs[13]
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
		regs[70] = uint64(0x0)
		writes++
		goto B93
	}
B93:
	{
		if lim-dyn < 3 {
			goto S93
		}
		regs[71] = boolBit(int64(int32(regs[70])) < int64(80))
		regs[72] = boolBit(regs[71] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[72] != 0 {
			goto B153
		}
		goto B96
	}
S93:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 93
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[71] = boolBit(int64(int32(regs[70])) < int64(80))
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
		readSlots += 1
		regs[72] = boolBit(regs[71] == uint64(0x0))
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
		readSlots += 1
		if regs[72] != 0 {
			goto B153
		}
		goto B96
	}
B96:
	{
		if lim-dyn < 6 {
			goto S96
		}
		regs[73] = uint64(0x0)
		regs[74] = uint64(0x0)
		q98, t98 := intDiv(ir.OpSDiv, ir.W32, (regs[70] & 0xffffffff), uint64(0x14))
		if t98 != TrapNone {
			dyn += 3
			readSlots += 1
			writes += 2
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t98)
			return kernHalt
		}
		regs[75] = (q98) & 0xffffffff
		regs[76] = boolBit((regs[75] & 0xffffffff) == uint64(0x0))
		regs[77] = boolBit(regs[76] == uint64(0x0))
		dyn += 6
		readSlots += 4
		writes += 5
		if regs[77] != 0 {
			goto B108
		}
		goto B102
	}
S96:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 96
			return kernHorizon
		}
		dyn++
		regs[73] = uint64(0x0)
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
		regs[74] = uint64(0x0)
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
		q98, t98 := intDiv(ir.OpSDiv, ir.W32, (regs[70] & 0xffffffff), uint64(0x14))
		if t98 != TrapNone {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.trapOut(t98)
			return kernHalt
		}
		regs[75] = (q98) & 0xffffffff
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
		readSlots += 1
		regs[76] = boolBit((regs[75] & 0xffffffff) == uint64(0x0))
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
		readSlots += 1
		regs[77] = boolBit(regs[76] == uint64(0x0))
		writes++
	}
S101:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 101
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[77] != 0 {
			goto B108
		}
		goto B102
	}
B102:
	{
		if lim-dyn < 6 {
			goto S102
		}
		regs[78] = (regs[66] & regs[67]) & 0xffffffff
		regs[79] = (regs[66] ^ uint64(0xffffffff)) & 0xffffffff
		regs[80] = (regs[79] & regs[68]) & 0xffffffff
		regs[81] = (regs[78] | regs[80]) & 0xffffffff
		regs[73] = regs[81]
		regs[74] = uint64(0x5a827999)
		dyn += 6
		readSlots += 8
		writes += 6
		goto B108
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
		regs[78] = (regs[66] & regs[67]) & 0xffffffff
		writes++
	}
S103:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 103
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[79] = (regs[66] ^ uint64(0xffffffff)) & 0xffffffff
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
		regs[80] = (regs[79] & regs[68]) & 0xffffffff
		writes++
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
		regs[81] = (regs[78] | regs[80]) & 0xffffffff
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
		readSlots += 1
		regs[73] = regs[81]
		writes++
	}
S107:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 107
			return kernHorizon
		}
		dyn++
		regs[74] = uint64(0x5a827999)
		writes++
		goto B108
	}
B108:
	{
		if lim-dyn < 3 {
			goto S108
		}
		regs[82] = boolBit((regs[75] & 0xffffffff) == uint64(0x1))
		regs[83] = boolBit(regs[82] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[83] != 0 {
			goto B115
		}
		goto B111
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
		regs[82] = boolBit((regs[75] & 0xffffffff) == uint64(0x1))
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
		readSlots += 1
		regs[83] = boolBit(regs[82] == uint64(0x0))
		writes++
	}
S110:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 110
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if regs[83] != 0 {
			goto B115
		}
		goto B111
	}
B111:
	{
		if lim-dyn < 4 {
			goto S111
		}
		regs[84] = (regs[66] ^ regs[67]) & 0xffffffff
		regs[85] = (regs[84] ^ regs[68]) & 0xffffffff
		regs[73] = regs[85]
		regs[74] = uint64(0x6ed9eba1)
		dyn += 4
		readSlots += 5
		writes += 4
		goto B115
	}
S111:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 111
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[84] = (regs[66] ^ regs[67]) & 0xffffffff
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
		readSlots += 2
		regs[85] = (regs[84] ^ regs[68]) & 0xffffffff
		writes++
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
		regs[73] = regs[85]
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
		regs[74] = uint64(0x6ed9eba1)
		writes++
		goto B115
	}
B115:
	{
		if lim-dyn < 3 {
			goto S115
		}
		regs[86] = boolBit((regs[75] & 0xffffffff) == uint64(0x2))
		regs[87] = boolBit(regs[86] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[87] != 0 {
			goto B125
		}
		goto B118
	}
S115:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 115
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[86] = boolBit((regs[75] & 0xffffffff) == uint64(0x2))
		writes++
	}
S116:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 116
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[87] = boolBit(regs[86] == uint64(0x0))
		writes++
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
		if regs[87] != 0 {
			goto B125
		}
		goto B118
	}
B118:
	{
		if lim-dyn < 7 {
			goto S118
		}
		regs[88] = (regs[66] & regs[67]) & 0xffffffff
		regs[89] = (regs[66] & regs[68]) & 0xffffffff
		regs[90] = (regs[88] | regs[89]) & 0xffffffff
		regs[91] = (regs[67] & regs[68]) & 0xffffffff
		regs[92] = (regs[90] | regs[91]) & 0xffffffff
		regs[73] = regs[92]
		regs[74] = uint64(0x8f1bbcdc)
		dyn += 7
		readSlots += 11
		writes += 7
		goto B125
	}
S118:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 118
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[88] = (regs[66] & regs[67]) & 0xffffffff
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
		readSlots += 2
		regs[89] = (regs[66] & regs[68]) & 0xffffffff
		writes++
	}
S120:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 120
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[90] = (regs[88] | regs[89]) & 0xffffffff
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
		readSlots += 2
		regs[91] = (regs[67] & regs[68]) & 0xffffffff
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
		readSlots += 2
		regs[92] = (regs[90] | regs[91]) & 0xffffffff
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
		regs[73] = regs[92]
		writes++
	}
S124:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 124
			return kernHorizon
		}
		dyn++
		regs[74] = uint64(0x8f1bbcdc)
		writes++
		goto B125
	}
B125:
	{
		if lim-dyn < 3 {
			goto S125
		}
		regs[93] = boolBit((regs[75] & 0xffffffff) == uint64(0x3))
		regs[94] = boolBit(regs[93] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[94] != 0 {
			goto B132
		}
		goto B128
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
		regs[93] = boolBit((regs[75] & 0xffffffff) == uint64(0x3))
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
		regs[94] = boolBit(regs[93] == uint64(0x0))
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
		if regs[94] != 0 {
			goto B132
		}
		goto B128
	}
B128:
	{
		if lim-dyn < 4 {
			goto S128
		}
		regs[95] = (regs[66] ^ regs[67]) & 0xffffffff
		regs[96] = (regs[95] ^ regs[68]) & 0xffffffff
		regs[73] = regs[96]
		regs[74] = uint64(0xca62c1d6)
		dyn += 4
		readSlots += 5
		writes += 4
		goto B132
	}
S128:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 128
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[95] = (regs[66] ^ regs[67]) & 0xffffffff
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
		readSlots += 2
		regs[96] = (regs[95] ^ regs[68]) & 0xffffffff
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
		readSlots += 1
		regs[73] = regs[96]
		writes++
	}
S131:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 131
			return kernHorizon
		}
		dyn++
		regs[74] = uint64(0xca62c1d6)
		writes++
		goto B132
	}
B132:
	{
		if lim-dyn < 21 {
			goto S132
		}
		regs[97] = regs[70] * uint64(0x4)
		regs[98] = uint64(0x10000240) + regs[97]
		v134, ok134 := m.flatLoad32(regs[98])
		if !ok134 {
			var t134 TrapKind
			if v134, t134 = m.load(regs[98], 4); t134 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t134)
				return kernHalt
			}
		}
		regs[99] = v134
		regs[100] = ((regs[65] & 0xffffffff) << 5) & 0xffffffff
		regs[101] = (regs[65] & 0xffffffff) >> 27
		regs[102] = (regs[100] | regs[101]) & 0xffffffff
		regs[103] = (regs[102] + regs[73]) & 0xffffffff
		regs[104] = (regs[69] + regs[74]) & 0xffffffff
		regs[105] = (regs[103] + regs[104]) & 0xffffffff
		regs[106] = (regs[105] + regs[99]) & 0xffffffff
		regs[69] = regs[68]
		regs[68] = regs[67]
		regs[107] = ((regs[66] & 0xffffffff) << 30) & 0xffffffff
		regs[108] = (regs[66] & 0xffffffff) >> 2
		regs[109] = (regs[107] | regs[108]) & 0xffffffff
		regs[67] = regs[109]
		regs[66] = regs[65]
		regs[65] = regs[106]
		regs[110] = (regs[70] + uint64(0x1)) & 0xffffffff
		regs[70] = regs[110]
		dyn += 21
		readSlots += 26
		writes += 20
		goto B93
	}
S132:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 132
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[97] = regs[70] * uint64(0x4)
		writes++
	}
S133:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 133
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[98] = uint64(0x10000240) + regs[97]
		writes++
	}
S134:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 134
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v134, ok134 := m.flatLoad32(regs[98])
		if !ok134 {
			var t134 TrapKind
			if v134, t134 = m.load(regs[98], 4); t134 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t134)
				return kernHalt
			}
		}
		regs[99] = v134
		writes++
	}
S135:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 135
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[100] = ((regs[65] & 0xffffffff) << 5) & 0xffffffff
		writes++
	}
S136:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 136
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[101] = (regs[65] & 0xffffffff) >> 27
		writes++
	}
S137:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 137
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[102] = (regs[100] | regs[101]) & 0xffffffff
		writes++
	}
S138:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 138
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[103] = (regs[102] + regs[73]) & 0xffffffff
		writes++
	}
S139:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 139
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[104] = (regs[69] + regs[74]) & 0xffffffff
		writes++
	}
S140:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 140
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[105] = (regs[103] + regs[104]) & 0xffffffff
		writes++
	}
S141:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 141
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[106] = (regs[105] + regs[99]) & 0xffffffff
		writes++
	}
S142:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 142
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[69] = regs[68]
		writes++
	}
S143:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 143
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[68] = regs[67]
		writes++
	}
S144:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 144
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[107] = ((regs[66] & 0xffffffff) << 30) & 0xffffffff
		writes++
	}
S145:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 145
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[108] = (regs[66] & 0xffffffff) >> 2
		writes++
	}
S146:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 146
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[109] = (regs[107] | regs[108]) & 0xffffffff
		writes++
	}
S147:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 147
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[67] = regs[109]
		writes++
	}
S148:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 148
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[66] = regs[65]
		writes++
	}
S149:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 149
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[65] = regs[106]
		writes++
	}
S150:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 150
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[110] = (regs[70] + uint64(0x1)) & 0xffffffff
		writes++
	}
S151:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 151
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[70] = regs[110]
		writes++
	}
S152:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 152
			return kernHorizon
		}
		dyn++
		goto B93
	}
B153:
	{
		if lim-dyn < 13 {
			goto S153
		}
		regs[111] = (regs[9] + regs[65]) & 0xffffffff
		regs[9] = regs[111]
		regs[112] = (regs[10] + regs[66]) & 0xffffffff
		regs[10] = regs[112]
		regs[113] = (regs[11] + regs[67]) & 0xffffffff
		regs[11] = regs[113]
		regs[114] = (regs[12] + regs[68]) & 0xffffffff
		regs[12] = regs[114]
		regs[115] = (regs[13] + regs[69]) & 0xffffffff
		regs[13] = regs[115]
		regs[116] = (regs[14] + uint64(0x1)) & 0xffffffff
		regs[14] = regs[116]
		dyn += 13
		readSlots += 17
		writes += 12
		goto B28
	}
S153:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 153
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[111] = (regs[9] + regs[65]) & 0xffffffff
		writes++
	}
S154:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 154
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[9] = regs[111]
		writes++
	}
S155:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 155
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[112] = (regs[10] + regs[66]) & 0xffffffff
		writes++
	}
S156:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 156
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[10] = regs[112]
		writes++
	}
S157:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 157
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[113] = (regs[11] + regs[67]) & 0xffffffff
		writes++
	}
S158:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 158
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[11] = regs[113]
		writes++
	}
S159:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 159
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[114] = (regs[12] + regs[68]) & 0xffffffff
		writes++
	}
S160:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 160
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[12] = regs[114]
		writes++
	}
S161:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 161
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[115] = (regs[13] + regs[69]) & 0xffffffff
		writes++
	}
S162:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 162
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[13] = regs[115]
		writes++
	}
S163:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 163
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[116] = (regs[14] + uint64(0x1)) & 0xffffffff
		writes++
	}
S164:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 164
			return kernHorizon
		}
		dyn++
		readSlots += 1
		regs[14] = regs[116]
		writes++
	}
S165:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 165
			return kernHorizon
		}
		dyn++
		goto B28
	}
B166:
	{
		if lim-dyn < 5 {
			goto S166
		}
		if !m.outAppend((regs[9] & 0xffffffff), 4) {
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
			fr.pc = 167
			return kernEvent
		}
		if !m.outAppend((regs[10] & 0xffffffff), 4) {
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
			fr.pc = 168
			return kernEvent
		}
		if !m.outAppend((regs[11] & 0xffffffff), 4) {
			dyn += 3
			readSlots += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 3
			readSlots += 3
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 169
			return kernEvent
		}
		if !m.outAppend((regs[12] & 0xffffffff), 4) {
			dyn += 4
			readSlots += 4
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 4
			readSlots += 4
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 170
			return kernEvent
		}
		if !m.outAppend((regs[13] & 0xffffffff), 4) {
			dyn += 5
			readSlots += 5
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 5
			readSlots += 5
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 171
			return kernEvent
		}
		dyn += 5
		readSlots += 5
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 171
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
S166:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 166
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
			fr.pc = 167
			return kernEvent
		}
	}
S167:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 167
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend((regs[10] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 168
			return kernEvent
		}
	}
S168:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 168
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend((regs[11] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 169
			return kernEvent
		}
	}
S169:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 169
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend((regs[12] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 170
			return kernEvent
		}
	}
S170:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 170
			return kernHorizon
		}
		dyn++
		readSlots += 1
		if !m.outAppend((regs[13] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 171
			return kernEvent
		}
	}
S171:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 171
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
