// Command proggen generates the VM's compiled fast tier: for every
// workload in internal/prog (the paper's 15 Table II programs plus the
// named extras), it emits a Go source file into internal/vm translating
// the workload's IR into native straight-line basic-block functions over
// the same machine state the interpreter uses, registered in the VM's
// compiled-kernel registry and guarded by the IR's semantic fingerprint
// (ir.Program.Fingerprint). It also emits the fingerprint manifest into
// internal/prog, whose drift test keeps committed kernels honest.
//
// Run it through go generate (the directive lives in internal/vm/kern.go):
//
//	go generate ./...
//
// Generated code contract (mirrored by internal/vm/kern.go):
//
//   - one kernFn per IR function, entered at any pc via a dispatch switch:
//     basic-block leaders enter a batched path (one event-horizon check
//     per block, counter deltas folded to constants), every other pc
//     enters a stepwise path (per-instruction horizon checks) that
//     rejoins the batched flow at the next block boundary;
//   - the dynamic, read-slot and write counters are bit-identical to the
//     interpreter's at every exit, including partial-block trap exits;
//   - every load and store first takes the VM's inlined flat accessor
//     for its width (machine.flatLoad8..64, flatStore8..64), which serves
//     an aligned access inside the globals with no tracking work due,
//     and falls back to machine.load/store for every other access, so
//     traps and dirty tracking behave identically;
//   - calls and returns are not compiled: the kernel flushes state and
//     reports kernOut, and the VM executes the frame operation through
//     the observer tier;
//   - after each Out the kernel compares the output's length with the
//     machine's output check length and, once it is reached, flushes
//     exact counters, leaves fr.pc past the Out and reports kernEvent, so
//     the VM records or checks the output event at the same outputs as
//     the interpreter.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"strings"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
)

func main() {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	benches := append(prog.All(), prog.Extras()...)
	var manifest bytes.Buffer
	fmt.Fprintf(&manifest, "%s\n\npackage prog\n\n", header)
	manifest.WriteString(`// CompiledKernels maps each workload name to the ir.Program.Fingerprint
// its compiled VM kernel (internal/vm/kern_*_gen.go) was generated from.
// The VM compares the same fingerprint at run time and silently falls
// back to the interpreter on a mismatch; TestCompiledKernelManifest turns
// a mismatch into a loud "re-run go generate" failure instead.
var CompiledKernels = map[string]uint64{
`)
	for _, b := range benches {
		p, err := b.Build()
		if err != nil {
			fatal(fmt.Errorf("build %s: %w", b.Name, err))
		}
		if err := p.Validate(); err != nil {
			fatal(fmt.Errorf("validate %s: %w", b.Name, err))
		}
		fp := p.Fingerprint()
		fmt.Fprintf(&manifest, "\t%q: %#016x,\n", b.Name, fp)
		// Register under the built program's name — that is the key the
		// VM's registry gate compares; a benchmark's module name may
		// differ from its registry name (megapixel -> megapixel-1024KiB).
		src := genProgram(p.Name, p, fp)
		out := filepath.Join(root, "internal", "vm", "kern_"+fileSlug(b.Name)+"_gen.go")
		if err := writeFormatted(out, src); err != nil {
			fatal(fmt.Errorf("%s: %w", b.Name, err))
		}
	}
	manifest.WriteString("}\n")
	out := filepath.Join(root, "internal", "prog", "kernels_gen.go")
	if err := writeFormatted(out, manifest.Bytes()); err != nil {
		fatal(fmt.Errorf("manifest: %w", err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "proggen:", err)
	os.Exit(1)
}

// moduleRoot walks up from the working directory to the go.mod, so the
// generator runs correctly from the repository root and from go:generate
// (whose working directory is the package holding the directive).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

func writeFormatted(path string, src []byte) error {
	fmted, err := format.Source(src)
	if err != nil {
		return fmt.Errorf("generated source does not parse: %w", err)
	}
	return os.WriteFile(path, fmted, 0o644)
}

const header = "// Code generated by internal/proggen. DO NOT EDIT."

// fileSlug lowers a workload name into a file-name fragment.
func fileSlug(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ident camel-cases a workload name into a Go identifier fragment.
func ident(name string) string {
	var b strings.Builder
	up := true
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
			if up {
				r += 'A' - 'a'
			}
			b.WriteRune(r)
			up = false
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			up = false
		default:
			up = true
		}
	}
	return b.String()
}

// gen accumulates one generated file.
type gen struct {
	b        bytes.Buffer
	usesMath bool
	usesIR   bool
}

func (g *gen) p(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func genProgram(name string, p *ir.Program, fp uint64) []byte {
	id := ident(name)
	var g gen
	var body gen
	for fi, f := range p.Funcs {
		body.genFunc(id, fi, f)
	}
	g.p("%s", header)
	g.p("//")
	g.p("// Compiled fast-tier kernels for the %q workload: one native", name)
	g.p("// function per IR function, executing between the VM's event horizons")
	g.p("// with bit-identical counters, traps, and memory effects (see")
	g.p("// internal/proggen).")
	g.p("")
	g.p("package vm")
	g.p("")
	if body.usesMath || body.usesIR {
		g.p("import (")
		if body.usesMath {
			g.p("\t%q", "math")
		}
		if body.usesIR {
			g.p("\t%q", "multiflip/internal/ir")
		}
		g.p(")")
		g.p("")
	}
	g.p("func init() {")
	var fns []string
	for fi := range p.Funcs {
		fns = append(fns, fmt.Sprintf("kern%sF%d", id, fi))
	}
	g.p("\tregisterKernel(%q, %#016x, []kernFn{%s})", name, fp, strings.Join(fns, ", "))
	g.p("}")
	g.p("")
	g.b.Write(body.b.Bytes())
	return g.b.Bytes()
}

// flush is the counter write-back emitted at every kernel exit.
const flush = "m.dyn, m.readSlots, m.writes = dyn, readSlots, writes"

func (g *gen) genFunc(id string, fi int, f *ir.Func) {
	leaders := ir.BlockLeaders(f)
	isLeader := make(map[int]bool, len(leaders))
	for _, l := range leaders {
		isLeader[l] = true
	}
	g.p("// kern%sF%d compiles IR function %d (%s): %d instructions, %d blocks.",
		id, fi, fi, f.Name, len(f.Code), len(leaders))
	g.p("func kern%sF%d(m *machine, fr *frame, lim uint64) kernStat {", id, fi)
	if f.NumRegs > 0 {
		g.p("if len(fr.regs) < %d {", f.NumRegs)
		g.p("return kernBail")
		g.p("}")
		g.p("regs := fr.regs[:%d:%d]", f.NumRegs, f.NumRegs)
	} else {
		g.p("regs := fr.regs")
	}
	g.p("_ = regs")
	g.p("dyn, readSlots, writes := m.dyn, m.readSlots, m.writes")
	g.p("switch fr.pc {")
	for pc := range f.Code {
		if isLeader[pc] {
			g.p("case %d:", pc)
			g.p("goto B%d", pc)
		} else {
			g.p("case %d:", pc)
			g.p("goto S%d", pc)
		}
	}
	g.p("default:")
	g.p("return kernBail")
	g.p("}")
	for bi, start := range leaders {
		end := len(f.Code)
		if bi+1 < len(leaders) {
			end = leaders[bi+1]
		}
		g.genBatched(f, start, end)
		g.genStepwise(f, start, end)
	}
	g.p("}")
	g.p("")
}

// blockKind classifies a block's last instruction.
func blockKind(in *ir.Instr) string {
	switch in.Op {
	case ir.OpBr:
		return "br"
	case ir.OpCondBr:
		return "condbr"
	case ir.OpCall:
		return "call"
	case ir.OpRet:
		return "ret"
	case ir.OpAbort:
		return "abort"
	}
	return "fall"
}

// genBatched emits the block's fast path: one horizon check covering the
// whole body, instruction semantics with no per-instruction accounting,
// and a single constant counter update at the block end. Trap exits
// mid-block write back the exact partial counts the interpreter would
// hold at that instruction.
func (g *gen) genBatched(f *ir.Func, start, end int) {
	last := &f.Code[end-1]
	kind := blockKind(last)
	n := end - start // instructions the batched body executes
	if kind == "call" || kind == "ret" {
		n--
	}
	g.p("B%d:", start)
	g.p("{")
	if n > 0 {
		g.p("if lim-dyn < %d {", n)
		g.p("goto S%d", start)
		g.p("}")
	}
	dAcc, rAcc, wAcc := 0, 0, 0
	acct := func(in *ir.Instr) string {
		// Counter state at a trap inside this instruction: the trapping
		// instruction counts its dynamic slot and register reads, never
		// its write.
		var sb strings.Builder
		fmt.Fprintf(&sb, "dyn += %d\n", dAcc+1)
		if r := rAcc + int(in.NR); r > 0 {
			fmt.Fprintf(&sb, "readSlots += %d\n", r)
		}
		if wAcc > 0 {
			fmt.Fprintf(&sb, "writes += %d\n", wAcc)
		}
		return sb.String()
	}
	bodyEnd := end
	if kind != "fall" {
		bodyEnd = end - 1
	}
	for pc := start; pc < bodyEnd; pc++ {
		in := &f.Code[pc]
		g.genInstr(pc, in, acct(in))
		dAcc++
		rAcc += int(in.NR)
		wAcc += int(in.DW)
	}
	emitTotals := func() {
		if dAcc > 0 {
			g.p("dyn += %d", dAcc)
		}
		if rAcc > 0 {
			g.p("readSlots += %d", rAcc)
		}
		if wAcc > 0 {
			g.p("writes += %d", wAcc)
		}
	}
	switch kind {
	case "br":
		dAcc++
		rAcc += int(last.NR)
		emitTotals()
		g.p("goto B%d", last.Off)
	case "condbr":
		dAcc++
		rAcc += int(last.NR)
		emitTotals()
		g.p("if %s != 0 {", g.uval(last.A))
		g.p("goto B%d", last.Off)
		g.p("}")
		g.p("goto B%d", end)
	case "abort":
		dAcc++
		rAcc += int(last.NR)
		emitTotals()
		g.p(flush)
		g.p("m.trapOut(TrapAbort)")
		g.p("return kernHalt")
	case "call", "ret":
		emitTotals()
		g.p(flush)
		g.p("fr.pc = %d", end-1)
		g.p("if dyn >= lim {")
		g.p("return kernHorizon")
		g.p("}")
		g.p("return kernOut")
	default: // fall: the next leader follows directly
		emitTotals()
		g.p("goto B%d", end)
	}
	g.p("}")
}

// genStepwise emits the block's resumable path: entered at any pc after
// an event horizon split the block, it executes one instruction at a
// time with exact per-instruction accounting and horizon checks, then
// rejoins the batched flow at the next block boundary.
func (g *gen) genStepwise(f *ir.Func, start, end int) {
	for pc := start; pc < end; pc++ {
		if pc == start && end == start+1 {
			// A lone call/ret block emits no headroom check, so nothing
			// references its stepwise label: the batched path already is
			// the per-instruction path.
			if op := f.Code[pc].Op; op == ir.OpCall || op == ir.OpRet {
				continue
			}
		}
		in := &f.Code[pc]
		g.p("S%d:", pc)
		g.p("{")
		if in.Op == ir.OpCall || in.Op == ir.OpRet {
			g.p(flush)
			g.p("fr.pc = %d", pc)
			g.p("if dyn >= lim {")
			g.p("return kernHorizon")
			g.p("}")
			g.p("return kernOut")
			g.p("}")
			continue
		}
		g.p("if dyn >= lim {")
		g.p(flush)
		g.p("fr.pc = %d", pc)
		g.p("return kernHorizon")
		g.p("}")
		g.p("dyn++")
		if in.NR > 0 {
			g.p("readSlots += %d", in.NR)
		}
		switch in.Op {
		case ir.OpBr:
			g.p("goto B%d", in.Off)
		case ir.OpCondBr:
			g.p("if %s != 0 {", g.uval(in.A))
			g.p("goto B%d", in.Off)
			g.p("}")
			g.p("goto B%d", pc+1)
		case ir.OpAbort:
			g.p(flush)
			g.p("m.trapOut(TrapAbort)")
			g.p("return kernHalt")
		default:
			g.genInstr(pc, in, "")
			if in.DW != 0 {
				g.p("writes++")
			}
			if pc == end-1 {
				g.p("goto B%d", end)
			}
		}
		g.p("}")
	}
}

// uval renders an operand as a uint64 expression.
func (g *gen) uval(o ir.Operand) string {
	if o.IsImm() {
		return fmt.Sprintf("uint64(%#x)", o.Imm())
	}
	return fmt.Sprintf("regs[%d]", o.Reg())
}

// masked renders an operand masked to the instruction width (a no-op for
// 64-bit), folding immediates at generation time.
func (g *gen) masked(o ir.Operand, w ir.Width) string {
	if w == ir.W64 {
		return g.uval(o)
	}
	if o.IsImm() {
		return fmt.Sprintf("uint64(%#x)", o.Imm()&w.Mask())
	}
	return fmt.Sprintf("(regs[%d] & %#x)", o.Reg(), w.Mask())
}

// sx renders an operand sign-extended from the instruction width as an
// int64 expression, folding immediates at generation time.
func (g *gen) sx(o ir.Operand, w ir.Width) string {
	if o.IsImm() {
		return fmt.Sprintf("int64(%d)", w.SignExtend(o.Imm()&w.Mask()))
	}
	r := o.Reg()
	switch w {
	case ir.W8:
		return fmt.Sprintf("int64(int8(regs[%d]))", r)
	case ir.W16:
		return fmt.Sprintf("int64(int16(regs[%d]))", r)
	case ir.W32:
		return fmt.Sprintf("int64(int32(regs[%d]))", r)
	default:
		return fmt.Sprintf("int64(regs[%d])", r)
	}
}

// f64 renders an operand reinterpreted as a float64.
func (g *gen) f64(o ir.Operand) string {
	g.usesMath = true
	return fmt.Sprintf("math.Float64frombits(%s)", g.uval(o))
}

// shift renders the masked shift count for width w.
func (g *gen) shift(o ir.Operand, w ir.Width) string {
	lim := uint64(w.Bits() - 1)
	if o.IsImm() {
		return fmt.Sprintf("%d", o.Imm()&lim)
	}
	return fmt.Sprintf("(regs[%d] & %d)", o.Reg(), lim)
}

// maskWrap wraps an expression with the width mask (no-op for 64-bit).
func maskWrap(expr string, w ir.Width) string {
	if w == ir.W64 {
		return expr
	}
	return fmt.Sprintf("(%s) & %#x", expr, w.Mask())
}

func widthName(w ir.Width) string {
	switch w {
	case ir.W8:
		return "ir.W8"
	case ir.W16:
		return "ir.W16"
	case ir.W32:
		return "ir.W32"
	default:
		return "ir.W64"
	}
}

func opName(op ir.Op) string {
	switch op {
	case ir.OpUDiv:
		return "ir.OpUDiv"
	case ir.OpSDiv:
		return "ir.OpSDiv"
	case ir.OpURem:
		return "ir.OpURem"
	default:
		return "ir.OpSRem"
	}
}

// addr renders A + Off with the displacement folded into one constant.
func (g *gen) addr(a ir.Operand, off int64) string {
	if off == 0 {
		return g.uval(a)
	}
	if a.IsImm() {
		return fmt.Sprintf("uint64(%#x)", a.Imm()+uint64(off))
	}
	return fmt.Sprintf("regs[%d] + %#x", a.Reg(), uint64(off))
}

// genInstr emits one straight-line instruction's semantics. trapAcct is
// prepended to every abnormal exit (the batched path's partial counter
// constants; empty on the stepwise path, whose counters are current).
func (g *gen) genInstr(pc int, in *ir.Instr, trapAcct string) {
	dst := fmt.Sprintf("regs[%d]", in.Dst)
	w := in.W
	exit := func(stmts ...string) {
		if trapAcct != "" {
			g.b.WriteString(trapAcct)
		}
		g.p(flush)
		for _, s := range stmts {
			g.p("%s", s)
		}
		g.p("return kernHalt")
	}
	switch in.Op {
	case ir.OpAdd:
		g.p("%s = %s", dst, maskWrap(g.uval(in.A)+" + "+g.uval(in.B), w))
	case ir.OpSub:
		g.p("%s = %s", dst, maskWrap(g.uval(in.A)+" - "+g.uval(in.B), w))
	case ir.OpMul:
		g.p("%s = %s", dst, maskWrap(g.uval(in.A)+" * "+g.uval(in.B), w))
	case ir.OpAnd:
		g.p("%s = %s", dst, maskWrap(g.uval(in.A)+" & "+g.uval(in.B), w))
	case ir.OpOr:
		g.p("%s = %s", dst, maskWrap(g.uval(in.A)+" | "+g.uval(in.B), w))
	case ir.OpXor:
		g.p("%s = %s", dst, maskWrap(g.uval(in.A)+" ^ "+g.uval(in.B), w))
	case ir.OpShl:
		g.p("%s = %s", dst, maskWrap(g.masked(in.A, w)+" << "+g.shift(in.B, w), w))
	case ir.OpLShr:
		g.p("%s = %s >> %s", dst, g.masked(in.A, w), g.shift(in.B, w))
	case ir.OpAShr:
		g.p("%s = %s", dst, maskWrap(fmt.Sprintf("uint64(%s >> %s)", g.sx(in.A, w), g.shift(in.B, w)), w))
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		g.usesIR = true
		g.p("q%d, t%d := intDiv(%s, %s, %s, %s)", pc, pc, opName(in.Op), widthName(w), g.masked(in.A, w), g.masked(in.B, w))
		g.p("if t%d != TrapNone {", pc)
		exit(fmt.Sprintf("m.trapOut(t%d)", pc))
		g.p("}")
		g.p("%s = %s", dst, maskWrap(fmt.Sprintf("q%d", pc), w))
	case ir.OpFAdd:
		g.p("%s = math.Float64bits(%s + %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFSub:
		g.p("%s = math.Float64bits(%s - %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFMul:
		g.p("%s = math.Float64bits(%s * %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFDiv:
		g.p("%s = math.Float64bits(%s / %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFNeg:
		g.p("%s = math.Float64bits(-%s)", dst, g.f64(in.A))
	case ir.OpFAbs:
		g.p("%s = math.Float64bits(math.Abs(%s))", dst, g.f64(in.A))
	case ir.OpFSqrt:
		g.p("%s = math.Float64bits(math.Sqrt(%s))", dst, g.f64(in.A))
	case ir.OpSExt:
		if w == ir.W64 {
			g.p("%s = %s", dst, g.uval(in.A))
		} else {
			g.p("%s = uint64(%s)", dst, g.sx(in.A, w))
		}
	case ir.OpZExt, ir.OpTrunc:
		g.p("%s = %s", dst, g.masked(in.A, w))
	case ir.OpSIToFP:
		g.usesMath = true
		g.p("%s = math.Float64bits(float64(%s))", dst, g.sx(in.A, w))
	case ir.OpFPToSI:
		g.usesIR = true
		g.p("%s = fpToSI(%s, %s)", dst, g.f64(in.A), widthName(w))
	case ir.OpBitcast, ir.OpMov:
		g.p("%s = %s", dst, g.uval(in.A))
	case ir.OpICmpEQ:
		g.p("%s = boolBit(%s == %s)", dst, g.masked(in.A, w), g.masked(in.B, w))
	case ir.OpICmpNE:
		g.p("%s = boolBit(%s != %s)", dst, g.masked(in.A, w), g.masked(in.B, w))
	case ir.OpICmpULT:
		g.p("%s = boolBit(%s < %s)", dst, g.masked(in.A, w), g.masked(in.B, w))
	case ir.OpICmpULE:
		g.p("%s = boolBit(%s <= %s)", dst, g.masked(in.A, w), g.masked(in.B, w))
	case ir.OpICmpSLT:
		g.p("%s = boolBit(%s < %s)", dst, g.sx(in.A, w), g.sx(in.B, w))
	case ir.OpICmpSLE:
		g.p("%s = boolBit(%s <= %s)", dst, g.sx(in.A, w), g.sx(in.B, w))
	case ir.OpFCmpEQ:
		g.p("%s = boolBit(%s == %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFCmpNE:
		g.p("%s = boolBit(%s != %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFCmpLT:
		g.p("%s = boolBit(%s < %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpFCmpLE:
		g.p("%s = boolBit(%s <= %s)", dst, g.f64(in.A), g.f64(in.B))
	case ir.OpSelect:
		g.p("if %s != 0 {", g.uval(in.A))
		g.p("%s = %s", dst, g.uval(in.B))
		g.p("} else {")
		g.p("%s = %s", dst, g.uval(in.C))
		g.p("}")
	case ir.OpLoad:
		a := g.addr(in.A, in.Off)
		g.p("v%d, ok%d := m.flatLoad%d(%s)", pc, pc, w.Bits(), a)
		g.p("if !ok%d {", pc)
		g.p("var t%d TrapKind", pc)
		g.p("if v%d, t%d = m.load(%s, %d); t%d != TrapNone {", pc, pc, a, w.Bytes(), pc)
		exit(fmt.Sprintf("m.trapOut(t%d)", pc))
		g.p("}")
		g.p("}")
		g.p("%s = v%d", dst, pc)
	case ir.OpStore:
		a := g.addr(in.A, in.Off)
		// The accessor takes the value at its width; an immediate is
		// truncated here, a register by conversion.
		fv := fmt.Sprintf("uint%d(%s)", w.Bits(), g.uval(in.B))
		if in.B.IsImm() {
			fv = fmt.Sprintf("%#x", in.B.Imm()&w.Mask())
		}
		g.p("if !m.flatStore%d(%s, %s) {", w.Bits(), a, fv)
		g.p("if t%d := m.store(%s, %d, %s); t%d != TrapNone {", pc, a, w.Bytes(), g.uval(in.B), pc)
		exit(fmt.Sprintf("m.trapOut(t%d)", pc))
		g.p("}")
		g.p("}")
	case ir.OpAlloca:
		g.usesIR = true
		size := (in.Off + 7) &^ 7
		g.p("if m.sp+%d > m.stack.n {", size)
		exit("m.trapOut(TrapStackOverflow)")
		g.p("}")
		g.p("%s = uint64(ir.StackBase + m.sp)", dst)
		g.p("m.sp += %d", size)
		g.p("if m.sp > m.stackHW {")
		g.p("m.stackHW = m.sp")
		g.p("m.stack.growFlat(m.sp)")
		g.p("}")
	case ir.OpOut:
		g.p("if !m.outAppend(%s, %d) {", g.masked(in.A, w), w.Bytes())
		exit("m.stop = StopOutputLimit")
		g.p("}")
		// An output that reaches the check length ends the stretch past
		// the Out, which writes no register, so its counters are the
		// trap accounting's.
		g.p("if len(m.out) >= m.outCheck {")
		g.b.WriteString(trapAcct)
		g.p(flush)
		g.p("fr.pc = %d", pc+1)
		g.p("return kernEvent")
		g.p("}")
	default:
		// Control flow (br/condbr/call/ret/abort) is handled by the block
		// emitters; reaching here means the generator and the IR disagree.
		panic(fmt.Sprintf("proggen: unexpected op %s at pc %d", in.Op, pc))
	}
}
