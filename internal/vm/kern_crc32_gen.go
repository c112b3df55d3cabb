// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "CRC32" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("CRC32", 0x53e3c1221222fc75, []kernFn{kernCRC32F0})
}

// kernCRC32F0 compiles IR function 0 (main): 45 instructions, 10 blocks.
func kernCRC32F0(m *machine, fr *frame, lim uint64) kernStat {
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
		goto B23
	case 24:
		goto S24
	case 25:
		goto B25
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
		goto S41
	case 42:
		goto B42
	case 43:
		goto S43
	case 44:
		goto S44
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
			goto B23
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
			goto B23
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 2 {
			goto S4
		}
		regs[3] = regs[0]
		regs[4] = uint64(0x0)
		dyn += 2
		readSlots += 1
		writes += 2
		goto B6
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
		regs[3] = regs[0]
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
		regs[4] = uint64(0x0)
		writes++
		goto B6
	}
B6:
	{
		if lim-dyn < 3 {
			goto S6
		}
		regs[5] = boolBit(int64(int32(regs[4])) < int64(8))
		regs[6] = boolBit(regs[5] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[6] != 0 {
			goto B17
		}
		goto B9
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
		regs[5] = boolBit(int64(int32(regs[4])) < int64(8))
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
		regs[6] = boolBit(regs[5] == uint64(0x0))
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
		if regs[6] != 0 {
			goto B17
		}
		goto B9
	}
B9:
	{
		if lim-dyn < 8 {
			goto S9
		}
		regs[7] = (regs[3] & uint64(0x1)) & 0xffffffff
		regs[8] = (regs[3] & 0xffffffff) >> 1
		regs[9] = (regs[8] ^ uint64(0xedb88320)) & 0xffffffff
		if regs[7] != 0 {
			regs[10] = regs[9]
		} else {
			regs[10] = regs[8]
		}
		regs[3] = regs[10]
		regs[11] = (regs[4] + uint64(0x1)) & 0xffffffff
		regs[4] = regs[11]
		dyn += 8
		readSlots += 9
		writes += 7
		goto B6
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
		regs[7] = (regs[3] & uint64(0x1)) & 0xffffffff
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
		regs[8] = (regs[3] & 0xffffffff) >> 1
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
		regs[9] = (regs[8] ^ uint64(0xedb88320)) & 0xffffffff
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
		readSlots += 3
		if regs[7] != 0 {
			regs[10] = regs[9]
		} else {
			regs[10] = regs[8]
		}
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
		regs[3] = regs[10]
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
		regs[11] = (regs[4] + uint64(0x1)) & 0xffffffff
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
		regs[4] = regs[11]
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
		goto B6
	}
B17:
	{
		if lim-dyn < 6 {
			goto S17
		}
		regs[12] = regs[0] * uint64(0x4)
		regs[13] = uint64(0x10000200) + regs[12]
		if !m.flatStore32(regs[13], uint32(regs[3])) {
			if t19 := m.store(regs[13], 4, regs[3]); t19 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
		regs[14] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[14]
		dyn += 6
		readSlots += 6
		writes += 4
		goto B1
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
		regs[12] = regs[0] * uint64(0x4)
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
		regs[13] = uint64(0x10000200) + regs[12]
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
		if !m.flatStore32(regs[13], uint32(regs[3])) {
			if t19 := m.store(regs[13], 4, regs[3]); t19 != TrapNone {
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
		readSlots += 1
		regs[14] = (regs[0] + uint64(0x1)) & 0xffffffff
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
		regs[0] = regs[14]
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
		goto B1
	}
B23:
	{
		if lim-dyn < 2 {
			goto S23
		}
		regs[15] = uint64(0xffffffff)
		regs[16] = uint64(0x0)
		dyn += 2
		writes += 2
		goto B25
	}
S23:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 23
			return kernHorizon
		}
		dyn++
		regs[15] = uint64(0xffffffff)
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
		regs[16] = uint64(0x0)
		writes++
		goto B25
	}
B25:
	{
		if lim-dyn < 3 {
			goto S25
		}
		regs[17] = boolBit(int64(int32(regs[16])) < int64(512))
		regs[18] = boolBit(regs[17] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[18] != 0 {
			goto B42
		}
		goto B28
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
		regs[17] = boolBit(int64(int32(regs[16])) < int64(512))
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
		regs[18] = boolBit(regs[17] == uint64(0x0))
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
		if regs[18] != 0 {
			goto B42
		}
		goto B28
	}
B28:
	{
		if lim-dyn < 14 {
			goto S28
		}
		regs[19] = regs[16] * uint64(0x1)
		regs[20] = uint64(0x10000000) + regs[19]
		v30, ok30 := m.flatLoad8(regs[20])
		if !ok30 {
			var t30 TrapKind
			if v30, t30 = m.load(regs[20], 1); t30 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t30)
				return kernHalt
			}
		}
		regs[21] = v30
		regs[22] = (regs[15] ^ regs[21]) & 0xffffffff
		regs[23] = (regs[22] & uint64(0xff)) & 0xffffffff
		regs[24] = regs[23] * uint64(0x4)
		regs[25] = uint64(0x10000200) + regs[24]
		v35, ok35 := m.flatLoad32(regs[25])
		if !ok35 {
			var t35 TrapKind
			if v35, t35 = m.load(regs[25], 4); t35 != TrapNone {
				dyn += 8
				readSlots += 9
				writes += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t35)
				return kernHalt
			}
		}
		regs[26] = v35
		regs[27] = (regs[15] & 0xffffffff) >> 8
		regs[28] = (regs[26] ^ regs[27]) & 0xffffffff
		regs[15] = regs[28]
		regs[29] = (regs[16] + uint64(0x1)) & 0xffffffff
		regs[16] = regs[29]
		dyn += 14
		readSlots += 15
		writes += 13
		goto B25
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
		regs[19] = regs[16] * uint64(0x1)
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
		regs[20] = uint64(0x10000000) + regs[19]
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
		v30, ok30 := m.flatLoad8(regs[20])
		if !ok30 {
			var t30 TrapKind
			if v30, t30 = m.load(regs[20], 1); t30 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t30)
				return kernHalt
			}
		}
		regs[21] = v30
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
		readSlots += 2
		regs[22] = (regs[15] ^ regs[21]) & 0xffffffff
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
		regs[23] = (regs[22] & uint64(0xff)) & 0xffffffff
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
		regs[24] = regs[23] * uint64(0x4)
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
		regs[25] = uint64(0x10000200) + regs[24]
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
		v35, ok35 := m.flatLoad32(regs[25])
		if !ok35 {
			var t35 TrapKind
			if v35, t35 = m.load(regs[25], 4); t35 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t35)
				return kernHalt
			}
		}
		regs[26] = v35
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
		regs[27] = (regs[15] & 0xffffffff) >> 8
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
		readSlots += 2
		regs[28] = (regs[26] ^ regs[27]) & 0xffffffff
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
		regs[15] = regs[28]
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
		regs[29] = (regs[16] + uint64(0x1)) & 0xffffffff
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
		regs[16] = regs[29]
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
		goto B25
	}
B42:
	{
		if lim-dyn < 2 {
			goto S42
		}
		regs[30] = (regs[15] ^ uint64(0xffffffff)) & 0xffffffff
		if !m.outAppend((regs[30] & 0xffffffff), 4) {
			dyn += 2
			readSlots += 2
			writes += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			dyn += 2
			readSlots += 2
			writes += 1
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 44
			return kernEvent
		}
		dyn += 2
		readSlots += 2
		writes += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 44
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		regs[30] = (regs[15] ^ uint64(0xffffffff)) & 0xffffffff
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
		if !m.outAppend((regs[30] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 44
			return kernEvent
		}
	}
S44:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 44
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
