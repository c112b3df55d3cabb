package core

// Fault-injecting journal tests (internal: the seams are the journal's
// append, the backoff knobs and the journalIO scripting): schedule determinism,
// retry-through-faults, the re-issue-after-failed-fsync rule, and the
// campaign-naming error wrap on retry exhaustion.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"multiflip/internal/xrand"
)

// shrinkBackoff makes the append-retry backoff near-instant for the
// duration of a test, so exhaustion paths run in microseconds. Tests
// using it must not run in parallel (the knobs are package globals).
func shrinkBackoff(t *testing.T) {
	t.Helper()
	base, cap := appendBackoffBase, appendBackoffCap
	appendBackoffBase, appendBackoffCap = 10*time.Microsecond, 50*time.Microsecond
	t.Cleanup(func() { appendBackoffBase, appendBackoffCap = base, cap })
}

// scriptFile is a scripted in-memory journalIO: it can fail the first k
// writes and the first k fsyncs, and counts both.
type scriptFile struct {
	data   []byte
	writes int
	syncs  int
	// failWrites/failSyncs fail that many leading calls with ENOSPC/EIO.
	failWrites int
	failSyncs  int
}

func (s *scriptFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(s.data)) {
		return 0, io.EOF
	}
	n := copy(p, s.data[off:])
	if off+int64(n) == int64(len(s.data)) {
		return n, io.EOF
	}
	return n, nil
}

func (s *scriptFile) Write(p []byte) (int, error) {
	s.writes++
	if s.writes <= s.failWrites {
		return 0, syscall.ENOSPC
	}
	s.data = append(s.data, p...)
	return len(p), nil
}

func (s *scriptFile) Sync() error {
	s.syncs++
	if s.syncs <= s.failSyncs {
		return syscall.EIO
	}
	return nil
}

// Seek reports the end of the data: where every append lands.
func (s *scriptFile) Seek(int64, int) (int64, error) { return int64(len(s.data)), nil }

func (s *scriptFile) Close() error { return nil }

// scriptJournal returns a sync-mode journal of one campaign over a
// scripted file.
func scriptJournal(sf *scriptFile, path string) *FileJournal {
	l := newLog(path, false)
	l.f, l.rng = sf, xrand.New(1)
	c := l.campaign(0)
	c.st = &journalState{now: time.Now}
	return &FileJournal{log: l, c: c, sync: true}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("9:60")
	if err != nil || p.Seed != 9 || p.Permille != 60 {
		t.Fatalf("ParseFaultPlan(9:60) = %+v, %v", p, err)
	}
	for _, bad := range []string{"", "9", "9:", ":60", "9:0", "9:1001", "x:60", "9:y"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

// TestFaultFileDeterministicSchedule pins the harness's replayability:
// the same plan over the same operation sequence injects the same
// faults at the same sequence numbers.
func TestFaultFileDeterministicSchedule(t *testing.T) {
	trace := func() (string, int) {
		ff := NewFaultFile(&scriptFile{}, &FaultPlan{Seed: 42, Permille: 300})
		var log bytes.Buffer
		rec := []byte("0123456789abcdef\n")
		for i := 0; i < 200; i++ {
			var err error
			if i%5 == 4 {
				err = ff.Sync()
			} else {
				_, err = ff.Write(rec)
			}
			fmt.Fprintf(&log, "%d:%v;", i, err)
		}
		return log.String(), ff.Faults()
	}
	log1, faults1 := trace()
	log2, faults2 := trace()
	if log1 != log2 || faults1 != faults2 {
		t.Fatalf("fault schedule not deterministic: %d vs %d faults", faults1, faults2)
	}
	if faults1 == 0 {
		t.Fatal("permille 300 over 200 ops injected nothing (vacuous harness)")
	}
}

// TestAppendReissuesAfterFailedFsync pins the durability rule: after a
// failed fsync the append's fate is unknown, so the whole framed line is
// re-written — never assumed written. Two scripted fsync failures must
// cost two full re-issues.
func TestAppendReissuesAfterFailedFsync(t *testing.T) {
	shrinkBackoff(t)
	sf := &scriptFile{failSyncs: 2}
	j := scriptJournal(sf, "test.mfj")
	if err := j.append(&journalRecord{T: "lease", Shard: 0, Worker: "w", Exp: 1}, true); err != nil {
		t.Fatal(err)
	}
	if sf.writes != 3 || sf.syncs != 3 {
		t.Fatalf("want 3 writes and 3 fsyncs (2 re-issues), got %d/%d", sf.writes, sf.syncs)
	}
	if got := bytes.Count(sf.data, []byte("\n")); got != 3 {
		t.Fatalf("want the full line re-issued 3 times, found %d lines", got)
	}
	// The duplicates are identical framed records: each line must decode.
	var tail logTail
	decoded := 0
	if err := tail.read(bytes.NewReader(sf.data), func(int64, int, []byte) { decoded++ }); err != nil {
		t.Fatal(err)
	}
	if decoded != 3 {
		t.Fatalf("%d of 3 re-issued lines decode: %q", decoded, sf.data)
	}
}

// TestAppendExhaustionNamesCampaign checks the error wrap on retry
// exhaustion: a journal bound to a campaign must name the campaign
// fingerprint and the file path, and keep the root cause unwrappable.
func TestAppendExhaustionNamesCampaign(t *testing.T) {
	shrinkBackoff(t)
	sf := &scriptFile{failWrites: 1 << 30}
	j := scriptJournal(sf, "cdir/test.mfj")
	j.c.st.bound = true
	j.c.st.meta.Fingerprint = 0xabcdef0123456789
	err := j.append(&journalRecord{T: "done", Shard: 0}, true)
	if err == nil {
		t.Fatal("append on a dead file succeeded")
	}
	msg := err.Error()
	if want := fmt.Sprintf("%016x", uint64(0xabcdef0123456789)); !bytes.Contains([]byte(msg), []byte(want)) {
		t.Errorf("error misses the campaign fingerprint: %v", err)
	}
	if !bytes.Contains([]byte(msg), []byte("cdir/test.mfj")) {
		t.Errorf("error misses the journal path: %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("root cause not unwrappable: %v", err)
	}
	if sf.writes != appendAttempts {
		t.Errorf("gave up after %d attempts, want %d", sf.writes, appendAttempts)
	}
}

// TestJournalDrainsUnderFaultPlan drives a full claim/checkpoint drain
// through OpenFileJournalOpts with an aggressive fault plan: every
// injected ENOSPC, EIO, short write and failed fsync must be handled by
// the retry layer, and a clean reopen must see every shard checkpointed
// exactly once.
func TestJournalDrainsUnderFaultPlan(t *testing.T) {
	shrinkBackoff(t)
	path := filepath.Join(t.TempDir(), "campaign-1.mfj")
	before := faultsInjected.Load()
	j, err := OpenFileJournalOpts(path, FileJournalOptions{
		Sync:  true,
		Fault: &FaultPlan{Seed: 7, Permille: 250},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := CampaignMeta{Fingerprint: 1, Model: "t", N: 32, ShardSize: 4, Seed: 9}
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < meta.NumShards(); shard++ {
		got, state, err := j.Claim("w1", time.Minute)
		if err != nil || state != ClaimOK || got != shard {
			t.Fatalf("claim %d: got %d, %v, %v", shard, got, state, err)
		}
		sr := ShardResult{Shard: shard}
		for k := 0; k < meta.ShardSize; k++ {
			sr.Add(&Experiment{Outcome: OutcomeBenign, Bit: -1}, false)
		}
		if err := j.Checkpoint(sr); err != nil {
			t.Fatalf("checkpoint %d: %v", shard, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if faultsInjected.Load() == before {
		t.Fatal("fault plan injected nothing (vacuous drain)")
	}

	// A clean reopen replays the faulted log: torn debris and duplicate
	// re-issues must collapse to one checkpoint per shard.
	clean, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	status, err := clean.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != meta.NumShards() || status.Pending != 0 || status.Leased != 0 {
		t.Fatalf("reopened journal: %+v", status)
	}
	if status.Tally.N() != meta.N {
		t.Fatalf("reopened tally covers %d experiments, want %d", status.Tally.N(), meta.N)
	}
}

// TestJournalFaultsEnv checks MULTIFLIP_JOURNAL_FAULTS. A malformed value
// fails every journal open, and InspectDir (the scan behind fi -status),
// with an error naming the variable, instead of running unfaulted; the
// journal file is not created. A valid one faults the journals opened
// without a plan of their own.
func TestJournalFaultsEnv(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign-1.mfj")
	t.Setenv("MULTIFLIP_JOURNAL_FAULTS", "banana")
	RereadEnv(t)
	if _, err := OpenFileJournal(path); err == nil || !strings.Contains(err.Error(), "MULTIFLIP_JOURNAL_FAULTS") {
		t.Errorf("OpenFileJournal returned %v, want an error naming the variable", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a malformed plan left a journal file behind (stat: %v)", err)
	}
	if _, err := InspectDir(dir); err == nil || !strings.Contains(err.Error(), "MULTIFLIP_JOURNAL_FAULTS") {
		t.Errorf("InspectDir returned %v, want an error naming the variable", err)
	}

	t.Setenv("MULTIFLIP_JOURNAL_FAULTS", "7:250")
	RereadEnv(t)
	shrinkBackoff(t)
	before := faultsInjected.Load()
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	meta := CampaignMeta{Fingerprint: 1, Model: "t", N: 32, ShardSize: 4, Seed: 9}
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < meta.NumShards(); shard++ {
		if err := j.Checkpoint(ShardResult{Shard: shard}); err != nil {
			t.Fatalf("checkpoint %d: %v", shard, err)
		}
	}
	if faultsInjected.Load() == before {
		t.Error("the environment's fault plan injected nothing")
	}
}
