// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "megapixel-1024KiB" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("megapixel-1024KiB", 0xce78050109f72e85, []kernFn{kernMegapixel1024KiBF0})
}

// kernMegapixel1024KiBF0 compiles IR function 0 (main): 43 instructions, 10 blocks.
func kernMegapixel1024KiBF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 29 {
		return kernBail
	}
	regs := fr.regs[:29:29]
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
		goto B28
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
		goto B41
	case 42:
		goto S42
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(131072))
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
		regs[1] = boolBit(int64(int32(regs[0])) < int64(131072))
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
		regs[3] = regs[0] * uint64(0x9e3779b97f4a7c15)
		regs[4] = regs[3] >> 29
		regs[5] = regs[3] ^ regs[4]
		regs[6] = regs[0] * uint64(0x8)
		regs[7] = uint64(0x10000000) + regs[6]
		if !m.flatStore64(regs[7], uint64(regs[5])) {
			if t9 := m.store(regs[7], 8, regs[5]); t9 != TrapNone {
				dyn += 6
				readSlots += 8
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t9)
				return kernHalt
			}
		}
		regs[8] = (regs[0] + uint64(0x1)) & 0xffffffff
		regs[0] = regs[8]
		dyn += 9
		readSlots += 10
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
		regs[3] = regs[0] * uint64(0x9e3779b97f4a7c15)
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
		regs[4] = regs[3] >> 29
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
		readSlots += 2
		regs[5] = regs[3] ^ regs[4]
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
		regs[6] = regs[0] * uint64(0x8)
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
		regs[7] = uint64(0x10000000) + regs[6]
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
		if !m.flatStore64(regs[7], uint64(regs[5])) {
			if t9 := m.store(regs[7], 8, regs[5]); t9 != TrapNone {
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
		if lim-dyn < 1 {
			goto S13
		}
		regs[9] = uint64(0x1)
		dyn += 1
		writes += 1
		goto B14
	}
S13:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 13
			return kernHorizon
		}
		dyn++
		regs[9] = uint64(0x1)
		writes++
		goto B14
	}
B14:
	{
		if lim-dyn < 3 {
			goto S14
		}
		regs[10] = boolBit(int64(int32(regs[9])) < int64(131071))
		regs[11] = boolBit(regs[10] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[11] != 0 {
			goto B28
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
		readSlots += 1
		regs[10] = boolBit(int64(int32(regs[9])) < int64(131071))
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
		regs[11] = boolBit(regs[10] == uint64(0x0))
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
		if regs[11] != 0 {
			goto B28
		}
		goto B17
	}
B17:
	{
		if lim-dyn < 11 {
			goto S17
		}
		regs[12] = regs[9] * uint64(0x8)
		regs[13] = uint64(0x10000000) + regs[12]
		v19, ok19 := m.flatLoad64(regs[13] + 0xfffffffffffffff8)
		if !ok19 {
			var t19 TrapKind
			if v19, t19 = m.load(regs[13]+0xfffffffffffffff8, 8); t19 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
		regs[14] = v19
		v20, ok20 := m.flatLoad64(regs[13])
		if !ok20 {
			var t20 TrapKind
			if v20, t20 = m.load(regs[13], 8); t20 != TrapNone {
				dyn += 4
				readSlots += 4
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
		regs[15] = v20
		v21, ok21 := m.flatLoad64(regs[13] + 0x8)
		if !ok21 {
			var t21 TrapKind
			if v21, t21 = m.load(regs[13]+0x8, 8); t21 != TrapNone {
				dyn += 5
				readSlots += 5
				writes += 4
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t21)
				return kernHalt
			}
		}
		regs[16] = v21
		regs[17] = regs[14] + regs[16]
		regs[18] = regs[17] + regs[15]
		if !m.flatStore64(regs[13], uint64(regs[18])) {
			if t24 := m.store(regs[13], 8, regs[18]); t24 != TrapNone {
				dyn += 8
				readSlots += 11
				writes += 7
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
		}
		regs[19] = (regs[9] + uint64(0x1)) & 0xffffffff
		regs[9] = regs[19]
		dyn += 11
		readSlots += 13
		writes += 9
		goto B14
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
		regs[12] = regs[9] * uint64(0x8)
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
		regs[13] = uint64(0x10000000) + regs[12]
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
		v19, ok19 := m.flatLoad64(regs[13] + 0xfffffffffffffff8)
		if !ok19 {
			var t19 TrapKind
			if v19, t19 = m.load(regs[13]+0xfffffffffffffff8, 8); t19 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t19)
				return kernHalt
			}
		}
		regs[14] = v19
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
		v20, ok20 := m.flatLoad64(regs[13])
		if !ok20 {
			var t20 TrapKind
			if v20, t20 = m.load(regs[13], 8); t20 != TrapNone {
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
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 21
			return kernHorizon
		}
		dyn++
		readSlots += 1
		v21, ok21 := m.flatLoad64(regs[13] + 0x8)
		if !ok21 {
			var t21 TrapKind
			if v21, t21 = m.load(regs[13]+0x8, 8); t21 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t21)
				return kernHalt
			}
		}
		regs[16] = v21
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
		regs[17] = regs[14] + regs[16]
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
		regs[18] = regs[17] + regs[15]
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
		if !m.flatStore64(regs[13], uint64(regs[18])) {
			if t24 := m.store(regs[13], 8, regs[18]); t24 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
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
		readSlots += 1
		regs[19] = (regs[9] + uint64(0x1)) & 0xffffffff
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
		regs[9] = regs[19]
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
		goto B14
	}
B28:
	{
		if lim-dyn < 2 {
			goto S28
		}
		regs[20] = uint64(0x0)
		regs[21] = uint64(0x0)
		dyn += 2
		writes += 2
		goto B30
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
	}
S29:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 29
			return kernHorizon
		}
		dyn++
		regs[21] = uint64(0x0)
		writes++
		goto B30
	}
B30:
	{
		if lim-dyn < 3 {
			goto S30
		}
		regs[22] = boolBit(int64(int32(regs[21])) < int64(2048))
		regs[23] = boolBit(regs[22] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[23] != 0 {
			goto B41
		}
		goto B33
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
		regs[22] = boolBit(int64(int32(regs[21])) < int64(2048))
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
		regs[23] = boolBit(regs[22] == uint64(0x0))
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
		if regs[23] != 0 {
			goto B41
		}
		goto B33
	}
B33:
	{
		if lim-dyn < 8 {
			goto S33
		}
		regs[24] = regs[21] * uint64(0x200)
		regs[25] = uint64(0x10000000) + regs[24]
		v35, ok35 := m.flatLoad64(regs[25])
		if !ok35 {
			var t35 TrapKind
			if v35, t35 = m.load(regs[25], 8); t35 != TrapNone {
				dyn += 3
				readSlots += 3
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t35)
				return kernHalt
			}
		}
		regs[26] = v35
		regs[27] = regs[20] ^ regs[26]
		regs[20] = regs[27]
		regs[28] = (regs[21] + uint64(0x1)) & 0xffffffff
		regs[21] = regs[28]
		dyn += 8
		readSlots += 8
		writes += 7
		goto B30
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
		regs[24] = regs[21] * uint64(0x200)
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
		regs[25] = uint64(0x10000000) + regs[24]
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
		v35, ok35 := m.flatLoad64(regs[25])
		if !ok35 {
			var t35 TrapKind
			if v35, t35 = m.load(regs[25], 8); t35 != TrapNone {
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
		readSlots += 2
		regs[27] = regs[20] ^ regs[26]
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
		regs[20] = regs[27]
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
		regs[28] = (regs[21] + uint64(0x1)) & 0xffffffff
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
		regs[21] = regs[28]
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
		goto B30
	}
B41:
	{
		if lim-dyn < 1 {
			goto S41
		}
		if !m.outAppend(regs[20], 8) {
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
			fr.pc = 42
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 42
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend(regs[20], 8) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 42
			return kernEvent
		}
	}
S42:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 42
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
