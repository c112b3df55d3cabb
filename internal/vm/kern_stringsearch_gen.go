// Code generated by internal/proggen. DO NOT EDIT.
//
// Compiled fast-tier kernels for the "stringsearch" workload: one native
// function per IR function, executing between the VM's event horizons
// with bit-identical counters, traps, and memory effects (see
// internal/proggen).

package vm

func init() {
	registerKernel("stringsearch", 0xd1c9237bb7be6185, []kernFn{kernStringsearchF0, kernStringsearchF1})
}

// kernStringsearchF0 compiles IR function 0 (main): 25 instructions, 13 blocks.
func kernStringsearchF0(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 12 {
		return kernBail
	}
	regs := fr.regs[:12:12]
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
	case 13:
		goto B13
	case 14:
		goto S14
	case 15:
		goto B15
	case 16:
		goto S16
	case 17:
		goto B17
	case 18:
		goto S18
	case 19:
		goto B19
	case 20:
		goto S20
	case 21:
		goto B21
	case 22:
		goto S22
	case 23:
		goto B23
	case 24:
		goto S24
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
B13:
	{
		if lim-dyn < 1 {
			goto S13
		}
		if !m.outAppend((regs[6] & 0xffffffff), 4) {
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
			fr.pc = 14
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 14
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[6] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 14
			return kernEvent
		}
	}
S14:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 14
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B15:
	{
		if lim-dyn < 1 {
			goto S15
		}
		if !m.outAppend((regs[7] & 0xffffffff), 4) {
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
			fr.pc = 16
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 16
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[7] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 16
			return kernEvent
		}
	}
S16:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 16
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B17:
	{
		if lim-dyn < 1 {
			goto S17
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
			fr.pc = 18
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 18
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[8] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 18
			return kernEvent
		}
	}
S18:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 18
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B19:
	{
		if lim-dyn < 1 {
			goto S19
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
			fr.pc = 20
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 20
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[9] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 20
			return kernEvent
		}
	}
S20:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 20
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B21:
	{
		if lim-dyn < 1 {
			goto S21
		}
		if !m.outAppend((regs[10] & 0xffffffff), 4) {
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
			fr.pc = 22
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 22
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[10] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 22
			return kernEvent
		}
	}
S22:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 22
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
B23:
	{
		if lim-dyn < 1 {
			goto S23
		}
		if !m.outAppend((regs[11] & 0xffffffff), 4) {
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
			fr.pc = 24
			return kernEvent
		}
		dyn += 1
		readSlots += 1
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 24
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
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
		if !m.outAppend((regs[11] & 0xffffffff), 4) {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			m.stop = StopOutputLimit
			return kernHalt
		}
		if len(m.out) >= m.outCheck {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 24
			return kernEvent
		}
	}
S24:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 24
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}

// kernStringsearchF1 compiles IR function 1 (search): 85 instructions, 19 blocks.
func kernStringsearchF1(m *machine, fr *frame, lim uint64) kernStat {
	if len(fr.regs) < 67 {
		return kernBail
	}
	regs := fr.regs[:67:67]
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
		goto B12
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
		goto B37
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
		goto B60
	case 61:
		goto S61
	case 62:
		goto S62
	case 63:
		goto B63
	case 64:
		goto B64
	case 65:
		goto B65
	case 66:
		goto S66
	case 67:
		goto S67
	case 68:
		goto B68
	case 69:
		goto S69
	case 70:
		goto S70
	case 71:
		goto B71
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
		goto B83
	case 84:
		goto B84
	default:
		return kernBail
	}
B0:
	{
		if lim-dyn < 1 {
			goto S0
		}
		regs[4] = uint64(0x0)
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
		regs[4] = uint64(0x0)
		writes++
		goto B1
	}
B1:
	{
		if lim-dyn < 3 {
			goto S1
		}
		regs[5] = boolBit(int64(int32(regs[4])) < int64(256))
		regs[6] = boolBit(regs[5] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[6] != 0 {
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
		regs[5] = boolBit(int64(int32(regs[4])) < int64(256))
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
		regs[6] = boolBit(regs[5] == uint64(0x0))
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
		if regs[6] != 0 {
			goto B10
		}
		goto B4
	}
B4:
	{
		if lim-dyn < 6 {
			goto S4
		}
		regs[7] = regs[4] * uint64(0x4)
		regs[8] = uint64(0x10000100) + regs[7]
		if !m.flatStore32(regs[8], uint32(regs[3])) {
			if t6 := m.store(regs[8], 4, regs[3]); t6 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t6)
				return kernHalt
			}
		}
		regs[9] = (regs[4] + uint64(0x1)) & 0xffffffff
		regs[4] = regs[9]
		dyn += 6
		readSlots += 6
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
		regs[7] = regs[4] * uint64(0x4)
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
		regs[8] = uint64(0x10000100) + regs[7]
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
		if !m.flatStore32(regs[8], uint32(regs[3])) {
			if t6 := m.store(regs[8], 4, regs[3]); t6 != TrapNone {
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
		regs[9] = (regs[4] + uint64(0x1)) & 0xffffffff
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
		regs[4] = regs[9]
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
		if lim-dyn < 2 {
			goto S10
		}
		regs[10] = (regs[3] - uint64(0x1)) & 0xffffffff
		regs[11] = uint64(0x0)
		dyn += 2
		readSlots += 1
		writes += 2
		goto B12
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
		regs[10] = (regs[3] - uint64(0x1)) & 0xffffffff
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
		regs[11] = uint64(0x0)
		writes++
		goto B12
	}
B12:
	{
		if lim-dyn < 3 {
			goto S12
		}
		regs[12] = boolBit(int64(int32(regs[11])) < int64(int32(regs[10])))
		regs[13] = boolBit(regs[12] == uint64(0x0))
		dyn += 3
		readSlots += 4
		writes += 2
		if regs[13] != 0 {
			goto B28
		}
		goto B15
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
		regs[12] = boolBit(int64(int32(regs[11])) < int64(int32(regs[10])))
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
		regs[13] = boolBit(regs[12] == uint64(0x0))
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
		if regs[13] != 0 {
			goto B28
		}
		goto B15
	}
B15:
	{
		if lim-dyn < 13 {
			goto S15
		}
		regs[14] = regs[11] * uint64(0x1)
		regs[15] = regs[2] + regs[14]
		v17, ok17 := m.flatLoad8(regs[15])
		if !ok17 {
			var t17 TrapKind
			if v17, t17 = m.load(regs[15], 1); t17 != TrapNone {
				dyn += 3
				readSlots += 4
				writes += 2
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t17)
				return kernHalt
			}
		}
		regs[16] = v17
		regs[17] = regs[16] * uint64(0x1)
		regs[18] = uint64(0x10000000) + regs[17]
		v20, ok20 := m.flatLoad8(regs[18])
		if !ok20 {
			var t20 TrapKind
			if v20, t20 = m.load(regs[18], 1); t20 != TrapNone {
				dyn += 6
				readSlots += 7
				writes += 5
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
		regs[19] = v20
		regs[20] = regs[19] * uint64(0x4)
		regs[21] = uint64(0x10000100) + regs[20]
		regs[22] = (regs[10] - regs[11]) & 0xffffffff
		if !m.flatStore32(regs[21], uint32(regs[22])) {
			if t24 := m.store(regs[21], 4, regs[22]); t24 != TrapNone {
				dyn += 10
				readSlots += 13
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t24)
				return kernHalt
			}
		}
		regs[23] = (regs[11] + uint64(0x1)) & 0xffffffff
		regs[11] = regs[23]
		dyn += 13
		readSlots += 15
		writes += 11
		goto B12
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
		regs[14] = regs[11] * uint64(0x1)
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
		regs[15] = regs[2] + regs[14]
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
		v17, ok17 := m.flatLoad8(regs[15])
		if !ok17 {
			var t17 TrapKind
			if v17, t17 = m.load(regs[15], 1); t17 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t17)
				return kernHalt
			}
		}
		regs[16] = v17
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
		regs[17] = regs[16] * uint64(0x1)
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
		regs[18] = uint64(0x10000000) + regs[17]
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
		v20, ok20 := m.flatLoad8(regs[18])
		if !ok20 {
			var t20 TrapKind
			if v20, t20 = m.load(regs[18], 1); t20 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t20)
				return kernHalt
			}
		}
		regs[19] = v20
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
		regs[20] = regs[19] * uint64(0x4)
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
		regs[21] = uint64(0x10000100) + regs[20]
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
		regs[22] = (regs[10] - regs[11]) & 0xffffffff
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
		if !m.flatStore32(regs[21], uint32(regs[22])) {
			if t24 := m.store(regs[21], 4, regs[22]); t24 != TrapNone {
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
		regs[23] = (regs[11] + uint64(0x1)) & 0xffffffff
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
		regs[11] = regs[23]
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
		goto B12
	}
B28:
	{
		if lim-dyn < 4 {
			goto S28
		}
		regs[24] = uint64(0x0)
		regs[25] = (regs[1] - regs[3]) & 0xffffffff
		regs[26] = uint64(0xffffffffffffffff)
		regs[27] = uint64(0x0)
		dyn += 4
		readSlots += 2
		writes += 4
		goto B32
	}
S28:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 28
			return kernHorizon
		}
		dyn++
		regs[24] = uint64(0x0)
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
		regs[25] = (regs[1] - regs[3]) & 0xffffffff
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
		regs[26] = uint64(0xffffffffffffffff)
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
		regs[27] = uint64(0x0)
		writes++
		goto B32
	}
B32:
	{
		if lim-dyn < 5 {
			goto S32
		}
		regs[28] = boolBit(int64(int32(regs[24])) <= int64(int32(regs[25])))
		regs[29] = boolBit((regs[27] & 0xffffffff) == uint64(0x0))
		regs[30] = (regs[28] & regs[29]) & 0xffffffff
		regs[31] = boolBit(regs[30] == uint64(0x0))
		dyn += 5
		readSlots += 7
		writes += 4
		if regs[31] != 0 {
			goto B84
		}
		goto B37
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
		regs[28] = boolBit(int64(int32(regs[24])) <= int64(int32(regs[25])))
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
		regs[29] = boolBit((regs[27] & 0xffffffff) == uint64(0x0))
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
		readSlots += 2
		regs[30] = (regs[28] & regs[29]) & 0xffffffff
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
		regs[31] = boolBit(regs[30] == uint64(0x0))
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
		if regs[31] != 0 {
			goto B84
		}
		goto B37
	}
B37:
	{
		if lim-dyn < 2 {
			goto S37
		}
		regs[32] = regs[10]
		regs[33] = uint64(0x0)
		dyn += 2
		readSlots += 1
		writes += 2
		goto B39
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
		regs[32] = regs[10]
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
		regs[33] = uint64(0x0)
		writes++
		goto B39
	}
B39:
	{
		if lim-dyn < 5 {
			goto S39
		}
		regs[34] = boolBit(int64(0) <= int64(int32(regs[32])))
		regs[35] = boolBit((regs[33] & 0xffffffff) == uint64(0x0))
		regs[36] = (regs[34] & regs[35]) & 0xffffffff
		regs[37] = boolBit(regs[36] == uint64(0x0))
		dyn += 5
		readSlots += 6
		writes += 4
		if regs[37] != 0 {
			goto B65
		}
		goto B44
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
		regs[34] = boolBit(int64(0) <= int64(int32(regs[32])))
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
		regs[35] = boolBit((regs[33] & 0xffffffff) == uint64(0x0))
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
		regs[36] = (regs[34] & regs[35]) & 0xffffffff
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
		regs[37] = boolBit(regs[36] == uint64(0x0))
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
		if regs[37] != 0 {
			goto B65
		}
		goto B44
	}
B44:
	{
		if lim-dyn < 16 {
			goto S44
		}
		regs[38] = (regs[24] + regs[32]) & 0xffffffff
		regs[39] = regs[38] * uint64(0x1)
		regs[40] = regs[0] + regs[39]
		v47, ok47 := m.flatLoad8(regs[40])
		if !ok47 {
			var t47 TrapKind
			if v47, t47 = m.load(regs[40], 1); t47 != TrapNone {
				dyn += 4
				readSlots += 6
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t47)
				return kernHalt
			}
		}
		regs[41] = v47
		regs[42] = regs[41] * uint64(0x1)
		regs[43] = uint64(0x10000000) + regs[42]
		v50, ok50 := m.flatLoad8(regs[43])
		if !ok50 {
			var t50 TrapKind
			if v50, t50 = m.load(regs[43], 1); t50 != TrapNone {
				dyn += 7
				readSlots += 9
				writes += 6
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t50)
				return kernHalt
			}
		}
		regs[44] = v50
		regs[45] = regs[32] * uint64(0x1)
		regs[46] = regs[2] + regs[45]
		v53, ok53 := m.flatLoad8(regs[46])
		if !ok53 {
			var t53 TrapKind
			if v53, t53 = m.load(regs[46], 1); t53 != TrapNone {
				dyn += 10
				readSlots += 13
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t53)
				return kernHalt
			}
		}
		regs[47] = v53
		regs[48] = regs[47] * uint64(0x1)
		regs[49] = uint64(0x10000000) + regs[48]
		v56, ok56 := m.flatLoad8(regs[49])
		if !ok56 {
			var t56 TrapKind
			if v56, t56 = m.load(regs[49], 1); t56 != TrapNone {
				dyn += 13
				readSlots += 16
				writes += 12
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t56)
				return kernHalt
			}
		}
		regs[50] = v56
		regs[51] = boolBit((regs[44] & 0xffffffff) == (regs[50] & 0xffffffff))
		regs[52] = boolBit(regs[51] == uint64(0x0))
		dyn += 16
		readSlots += 20
		writes += 15
		if regs[52] != 0 {
			goto B63
		}
		goto B60
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
		regs[38] = (regs[24] + regs[32]) & 0xffffffff
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
		regs[39] = regs[38] * uint64(0x1)
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
		regs[40] = regs[0] + regs[39]
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
		v47, ok47 := m.flatLoad8(regs[40])
		if !ok47 {
			var t47 TrapKind
			if v47, t47 = m.load(regs[40], 1); t47 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t47)
				return kernHalt
			}
		}
		regs[41] = v47
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
		regs[42] = regs[41] * uint64(0x1)
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
		regs[43] = uint64(0x10000000) + regs[42]
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
		v50, ok50 := m.flatLoad8(regs[43])
		if !ok50 {
			var t50 TrapKind
			if v50, t50 = m.load(regs[43], 1); t50 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t50)
				return kernHalt
			}
		}
		regs[44] = v50
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
		regs[45] = regs[32] * uint64(0x1)
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
		readSlots += 2
		regs[46] = regs[2] + regs[45]
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
		v53, ok53 := m.flatLoad8(regs[46])
		if !ok53 {
			var t53 TrapKind
			if v53, t53 = m.load(regs[46], 1); t53 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t53)
				return kernHalt
			}
		}
		regs[47] = v53
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
		regs[48] = regs[47] * uint64(0x1)
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
		regs[49] = uint64(0x10000000) + regs[48]
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
		v56, ok56 := m.flatLoad8(regs[49])
		if !ok56 {
			var t56 TrapKind
			if v56, t56 = m.load(regs[49], 1); t56 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t56)
				return kernHalt
			}
		}
		regs[50] = v56
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
		readSlots += 2
		regs[51] = boolBit((regs[44] & 0xffffffff) == (regs[50] & 0xffffffff))
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
		regs[52] = boolBit(regs[51] == uint64(0x0))
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
		if regs[52] != 0 {
			goto B63
		}
		goto B60
	}
B60:
	{
		if lim-dyn < 3 {
			goto S60
		}
		regs[53] = (regs[32] - uint64(0x1)) & 0xffffffff
		regs[32] = regs[53]
		dyn += 3
		readSlots += 2
		writes += 2
		goto B64
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
		regs[53] = (regs[32] - uint64(0x1)) & 0xffffffff
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
		regs[32] = regs[53]
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
		goto B64
	}
B63:
	{
		if lim-dyn < 1 {
			goto S63
		}
		regs[33] = uint64(0x1)
		dyn += 1
		writes += 1
		goto B64
	}
S63:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 63
			return kernHorizon
		}
		dyn++
		regs[33] = uint64(0x1)
		writes++
		goto B64
	}
B64:
	{
		if lim-dyn < 1 {
			goto S64
		}
		dyn += 1
		goto B39
	}
S64:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 64
			return kernHorizon
		}
		dyn++
		goto B39
	}
B65:
	{
		if lim-dyn < 3 {
			goto S65
		}
		regs[54] = boolBit((regs[33] & 0xffffffff) == uint64(0x0))
		regs[55] = boolBit(regs[54] == uint64(0x0))
		dyn += 3
		readSlots += 3
		writes += 2
		if regs[55] != 0 {
			goto B71
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
		regs[54] = boolBit((regs[33] & 0xffffffff) == uint64(0x0))
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
		regs[55] = boolBit(regs[54] == uint64(0x0))
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
		if regs[55] != 0 {
			goto B71
		}
		goto B68
	}
B68:
	{
		if lim-dyn < 3 {
			goto S68
		}
		regs[26] = regs[24]
		regs[27] = uint64(0x1)
		dyn += 3
		readSlots += 1
		writes += 2
		goto B83
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
		regs[26] = regs[24]
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
		regs[27] = uint64(0x1)
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
		goto B83
	}
B71:
	{
		if lim-dyn < 12 {
			goto S71
		}
		regs[56] = (regs[24] + regs[10]) & 0xffffffff
		regs[57] = regs[56] * uint64(0x1)
		regs[58] = regs[0] + regs[57]
		v74, ok74 := m.flatLoad8(regs[58])
		if !ok74 {
			var t74 TrapKind
			if v74, t74 = m.load(regs[58], 1); t74 != TrapNone {
				dyn += 4
				readSlots += 6
				writes += 3
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t74)
				return kernHalt
			}
		}
		regs[59] = v74
		regs[60] = regs[59] * uint64(0x1)
		regs[61] = uint64(0x10000000) + regs[60]
		v77, ok77 := m.flatLoad8(regs[61])
		if !ok77 {
			var t77 TrapKind
			if v77, t77 = m.load(regs[61], 1); t77 != TrapNone {
				dyn += 7
				readSlots += 9
				writes += 6
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t77)
				return kernHalt
			}
		}
		regs[62] = v77
		regs[63] = regs[62] * uint64(0x4)
		regs[64] = uint64(0x10000100) + regs[63]
		v80, ok80 := m.flatLoad32(regs[64])
		if !ok80 {
			var t80 TrapKind
			if v80, t80 = m.load(regs[64], 4); t80 != TrapNone {
				dyn += 10
				readSlots += 12
				writes += 9
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t80)
				return kernHalt
			}
		}
		regs[65] = v80
		regs[66] = (regs[24] + regs[65]) & 0xffffffff
		regs[24] = regs[66]
		dyn += 12
		readSlots += 15
		writes += 12
		goto B83
	}
S71:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 71
			return kernHorizon
		}
		dyn++
		readSlots += 2
		regs[56] = (regs[24] + regs[10]) & 0xffffffff
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
		regs[57] = regs[56] * uint64(0x1)
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
		regs[58] = regs[0] + regs[57]
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
		v74, ok74 := m.flatLoad8(regs[58])
		if !ok74 {
			var t74 TrapKind
			if v74, t74 = m.load(regs[58], 1); t74 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t74)
				return kernHalt
			}
		}
		regs[59] = v74
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
		regs[60] = regs[59] * uint64(0x1)
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
		regs[61] = uint64(0x10000000) + regs[60]
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
		v77, ok77 := m.flatLoad8(regs[61])
		if !ok77 {
			var t77 TrapKind
			if v77, t77 = m.load(regs[61], 1); t77 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t77)
				return kernHalt
			}
		}
		regs[62] = v77
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
		regs[63] = regs[62] * uint64(0x4)
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
		regs[64] = uint64(0x10000100) + regs[63]
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
		v80, ok80 := m.flatLoad32(regs[64])
		if !ok80 {
			var t80 TrapKind
			if v80, t80 = m.load(regs[64], 4); t80 != TrapNone {
				m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
				m.trapOut(t80)
				return kernHalt
			}
		}
		regs[65] = v80
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
		readSlots += 2
		regs[66] = (regs[24] + regs[65]) & 0xffffffff
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
		regs[24] = regs[66]
		writes++
		goto B83
	}
B83:
	{
		if lim-dyn < 1 {
			goto S83
		}
		dyn += 1
		goto B32
	}
S83:
	{
		if dyn >= lim {
			m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
			fr.pc = 83
			return kernHorizon
		}
		dyn++
		goto B32
	}
B84:
	{
		m.dyn, m.readSlots, m.writes = dyn, readSlots, writes
		fr.pc = 84
		if dyn >= lim {
			return kernHorizon
		}
		return kernOut
	}
}
