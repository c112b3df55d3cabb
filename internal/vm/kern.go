package vm

// The compiled fast tier: ahead-of-time generated native kernels for the
// static workload suite.
//
// internal/proggen runs under `go generate` and emits one kern_*_gen.go
// file per workload into this package: for every function of the program,
// a straight-line Go translation of its basic blocks operating on the
// same frame/register-arena/flat-memory state the interpreter uses. The
// files register themselves here, keyed by program name and guarded by
// the IR's semantic fingerprint (ir.Program.Fingerprint, as cached by
// Validate), so a kernel generated from stale IR is silently ignored and
// the run falls back to the interpreter. Nothing here holds a program:
// the registry keeps only generated code.
//
// The kernel contract mirrors sprint's: execute from fr.pc with the
// dynamic, read-slot and write counters in locals, never past the event
// horizon `lim`, and flush exact counter values on every exit. The
// horizon includes an armed plan's injection horizon, so kernels also
// run the gaps between injection points; the instruction where a flip
// can land is stepped by the observer tier. Unlike sprint, which calls
// a handler (dispatch.go) per instruction, a kernel performs no dispatch
// at all — blocks are native straight-line code with one horizon check
// per block, and a stepwise per-instruction path handles blocks the
// horizon interrupts — so between events the interpreter is escaped
// entirely. The kernels are the generated twin of the handler table;
// the compiled-tier differential tests hold them to it, and Out
// instructions share its output framing (outAppend). Each load and store
// first takes the inlined flat accessor for its width (flatLoad8..64,
// flatStore8..64 in vm.go), which serves an aligned access to the
// globals with no tracking work due, and falls back to machine.load or
// machine.store, which keep the one definition of traps and dirty bits.
// Calls and returns are left to the interpreter
// (kernOut): frame manipulation is rare, cold, and shared with the
// observer tier, whose injection checks cannot fire there because the
// call or return lies before the injection horizon, and which records
// and checks returns to main (trace.go) as sprint does. After each Out a
// kernel compares the output's length with the output check length
// (machine.outCheck), as hOut does for step and sprint, and when it is
// reached exits past the Out (kernEvent), so the golden run records and
// an injected run checks its output snapshots (trace.go) at the same
// outputs in every tier.

import "multiflip/internal/ir"

//go:generate go run multiflip/internal/proggen

// kernStat is a kernel's report of why it returned control.
type kernStat uint8

const (
	// kernHorizon: the event horizon was reached (m.dyn == the lim the
	// kernel was called with); fr.pc and the counters are flushed and the
	// outer loop's event checks run next.
	kernHorizon kernStat = iota
	// kernOut: fr.pc holds a call or return (and m.dyn < lim); the driver
	// executes that one instruction through the observer tier's step and
	// re-enters the outer loop.
	kernOut
	// kernEvent: an Out brought the output to the check length
	// (len(m.out) >= m.outCheck); fr.pc is past it and the counters are
	// flushed, and the driver runs the output event (machine.outEvent)
	// before re-entering the outer loop.
	kernEvent
	// kernHalt: the run is over; m.stop (and m.trap) are set and the
	// counters are flushed.
	kernHalt
	// kernBail: the kernel could not run at all (unknown pc, frame shape
	// mismatch); nothing was executed and the caller should sprint.
	kernBail
)

// kernFn executes one function's compiled code from fr.pc until the
// horizon, a frame operation, or a halt.
type kernFn func(m *machine, fr *frame, lim uint64) kernStat

// kernProg is one registered workload: the fingerprint of the IR the
// kernels were generated from, and one kernel per function (indexed like
// Program.Funcs).
type kernProg struct {
	fp  uint64
	fns []kernFn
}

// kernRegistry maps program name -> generated kernels. Populated by the
// generated files' init functions; read-only afterwards.
var kernRegistry = map[string]*kernProg{}

// registerKernel is called from generated code.
func registerKernel(name string, fp uint64, fns []kernFn) {
	kernRegistry[name] = &kernProg{fp: fp, fns: fns}
}

// kernelsFor returns the generated kernels for p, or nil when p has none
// or its IR no longer matches the generation-time fingerprint. It
// compares the fingerprint Validate cached in p: campaigns run hundreds
// of thousands of short VM runs against a handful of long-lived
// programs, and rehashing the program image each run would dominate
// short experiments.
func kernelsFor(p *ir.Program) []kernFn {
	kp, ok := kernRegistry[p.Name]
	if !ok || len(kp.fns) != len(p.Funcs) || kp.fp != p.ValidatedFingerprint() {
		return nil
	}
	return kp.fns
}

// Compiled reports whether runs of p use the compiled fast tier (a
// generated kernel is registered for p's name, its fingerprint matches,
// and MULTIFLIP_DISABLE does not disable TierCompile process-wide). The
// tier contract and the compiled-tier suite use it to prove they compare
// a real compiled run against the interpreter rather than two
// interpreted runs.
func Compiled(p *ir.Program) bool {
	return !EnvDisabled().Has(TierCompile) && kernelsFor(p) != nil
}
