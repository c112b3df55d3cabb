package core

// The fault-injecting journal harness: a journalIO wrapper that turns
// the tool's own methodology on its own durability layer. A FaultPlan
// seeds a deterministic schedule of injected I/O failures — ENOSPC,
// EIO, short writes, failed fsyncs — and FaultFile applies it to the
// campaign journal's writes, exactly the fault classes an append-only
// log on a real filesystem sees. The robustness tests and the chaos CI
// job drive a journaled campaign through the wrapper and require the
// final results bit-identical to a clean run: the retry/backoff layer
// (journal_file.go, journalLog.write), the re-issue-after-failed-fsync rule
// and the torn-line-tolerant loader must survive every injected fault.
//
// Determinism matters here as much as in the campaigns themselves: the
// schedule is a pure function of (plan seed, write sequence number), so
// a failing chaos run replays with the same seed.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"multiflip/internal/xrand"
)

// FaultPlan seeds a deterministic I/O failure schedule for a FaultFile.
type FaultPlan struct {
	// Seed pins the schedule: the same plan injects the same faults at
	// the same write sequence numbers.
	Seed uint64
	// Permille is the per-operation fault probability in 1/1000 units
	// (60 = 6% of writes/fsyncs fail). Values outside (0, 1000] inject
	// nothing.
	Permille int
}

// ParseFaultPlan parses the "seed:permille" notation of the
// MULTIFLIP_JOURNAL_FAULTS environment variable ("9:60" = seed 9, 6%
// fault rate).
func ParseFaultPlan(s string) (*FaultPlan, error) {
	seedStr, pmStr, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return nil, fmt.Errorf("core: fault plan %q: want seed:permille", s)
	}
	seed, err1 := strconv.ParseUint(seedStr, 10, 64)
	pm, err2 := strconv.Atoi(pmStr)
	if err1 != nil || err2 != nil || pm < 1 || pm > 1000 {
		return nil, fmt.Errorf("core: fault plan %q: want seed:permille with permille in [1,1000]", s)
	}
	return &FaultPlan{Seed: seed, Permille: pm}, nil
}

// faultPlanEnv parses the process-wide fault plan from
// MULTIFLIP_JOURNAL_FAULTS, applied to every FileJournal opened without
// an explicit FileJournalOptions.Fault. The chaos CI job sets it to
// stress a whole journaled study through unmodified front-ends. Unset
// is no plan; a malformed value is an error, which fails every journal
// open.
func faultPlanEnv() (*FaultPlan, error) {
	v := os.Getenv("MULTIFLIP_JOURNAL_FAULTS")
	if v == "" {
		return nil, nil
	}
	p, err := ParseFaultPlan(v)
	if err != nil {
		return nil, fmt.Errorf("core: MULTIFLIP_JOURNAL_FAULTS=%q: want seed:permille with permille in [1,1000]", v)
	}
	return p, nil
}

// envFaultPlan reads MULTIFLIP_JOURNAL_FAULTS on first use rather than
// in a package initializer, so that `go test`, which logs only the
// environment reads made while tests run, keys its result cache on it.
var envFaultPlan = sync.OnceValues(faultPlanEnv)

// faultsInjected counts injected faults process-wide, so tests can
// assert their fault schedule actually fired (a vacuously green
// robustness test is worse than none).
var faultsInjected atomic.Int64

// FaultFile wraps a journalIO, injecting the plan's failure schedule
// into Write and Sync. Reads pass through untouched — the loader's
// tolerance for torn and duplicate records is exercised by the debris
// the injected write failures leave behind, not by corrupting reads.
// Each injected write fault rotates through ENOSPC, EIO and a short
// write (half the record, then ENOSPC: the torn-tail case); injected
// fsyncs fail with EIO. Safe for concurrent use.
type FaultFile struct {
	inner journalIO

	mu  sync.Mutex
	rng *xrand.Rand
	pm  uint64
	// seq numbers the fault decisions taken, faults the faults injected;
	// kind rotates the write-fault flavor.
	seq, faults, kind int
}

// NewFaultFile wraps inner with plan's deterministic fault schedule.
func NewFaultFile(inner journalIO, plan *FaultPlan) *FaultFile {
	return &FaultFile{
		inner: inner,
		rng:   xrand.New(plan.Seed),
		pm:    uint64(plan.Permille),
	}
}

// Faults reports how many faults this file has injected.
func (ff *FaultFile) Faults() int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.faults
}

// inject decides whether the next operation faults, and with which
// rotation index.
func (ff *FaultFile) inject() (int, bool) {
	ff.seq++
	if ff.pm < 1 || ff.pm > 1000 || ff.rng.Uint64n(1000) >= ff.pm {
		return 0, false
	}
	ff.faults++
	ff.kind++
	faultsInjected.Add(1)
	return ff.kind, true
}

// ReadAt implements journalIO (pass-through).
func (ff *FaultFile) ReadAt(p []byte, off int64) (int, error) {
	return ff.inner.ReadAt(p, off)
}

// Write implements journalIO with the injected write-fault rotation.
func (ff *FaultFile) Write(p []byte) (int, error) {
	ff.mu.Lock()
	kind, fault := ff.inject()
	ff.mu.Unlock()
	if !fault {
		return ff.inner.Write(p)
	}
	switch kind % 3 {
	case 0:
		return 0, syscall.ENOSPC
	case 1:
		return 0, syscall.EIO
	default:
		// The torn-tail case: half the record really lands, then the
		// device fills. The loader must skip the debris and the writer
		// must re-issue the whole record.
		n, err := ff.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, syscall.ENOSPC
	}
}

// Sync implements journalIO: injected fsync failures report EIO, after
// which the caller must treat the preceding append as not durable and
// re-issue it — never assume it was written.
func (ff *FaultFile) Sync() error {
	ff.mu.Lock()
	_, fault := ff.inject()
	ff.mu.Unlock()
	if fault {
		return syscall.EIO
	}
	return ff.inner.Sync()
}

// Seek implements journalIO (pass-through).
func (ff *FaultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.inner.Seek(offset, whence)
}

// Close implements journalIO (pass-through).
func (ff *FaultFile) Close() error { return ff.inner.Close() }

// interface check
var _ io.ReaderAt = (*FaultFile)(nil)
