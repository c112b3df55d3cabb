package core

// FileJournal: the durable Journal. The format is an append-only log of
// checksummed JSON records, one per line:
//
//	crc32(payload) as 8 hex digits, a space, the JSON payload, '\n'
//
// Record types (the "t" field): "meta" (campaign identity, first
// record), "lease" (shard, worker, expiry) and "done" (shard
// checkpoint). Each record is written with a single O_APPEND write, so
// concurrent worker processes sharing the file interleave whole records
// on any POSIX filesystem. There is no compaction and, by default, no
// fsync: a crash can lose the tail of the log, never the middle, and
// whatever a torn tail loses is re-executed deterministically on resume.
// FileJournalOptions.Sync upgrades durability for machine-level crashes
// (power loss): checkpoint and meta records are fsynced after their
// append, and the parent directory is fsynced when the journal file is
// created, so an acknowledged checkpoint survives anything short of
// media failure. Lease records are advisory and are deliberately never
// synced — losing one costs at most a duplicate shard run.
//
// The loader is tolerant by construction: a line whose checksum or JSON
// does not parse is skipped (a torn write from a crashed or concurrent
// writer), a trailing partial line is left pending until its newline
// arrives, and an inconsistent "done" record is dropped by the shared
// journalState validation. The worst case of any corruption is a shard
// that re-runs — results are unaffected. FuzzJournalLoader pins this.
//
// Every mutating call first reads in records appended by other processes
// since the last read, so a FileJournal is also a live view of a
// campaign being drained by a fleet.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"multiflip/internal/xrand"
)

// journalIO is the file surface FileJournal actually uses. *os.File
// implements it directly; FaultFile (faultjournal.go) wraps one to
// inject deterministic I/O failures for the robustness tests and the
// chaos CI job.
type journalIO interface {
	io.ReaderAt
	io.Writer
	Sync() error
	Close() error
}

// appendLine appends one framed record to dst: the payload's CRC-32 as
// 8 lowercase hex digits, a space, the payload, '\n'.
func appendLine(dst, payload []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	dst = hex.AppendEncode(dst, sum[:])
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// decodeLine unframes one record line (without its '\n'), reporting
// whether the frame and checksum held. The checksum must be exactly 8
// hex digits, in either case.
func decodeLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(sum[:]) {
		return nil, false
	}
	return payload, true
}

// logTail reads an append-only record file incrementally: it remembers
// how far it has read, keeps a trailing partial line pending until its
// newline lands, and reuses one read buffer for the file's lifetime.
type logTail struct {
	off     int64
	pending []byte
	buf     []byte
}

// read hands apply the payload of every complete record appended to r
// since the last read. Lines whose frame or checksum does not hold (a
// torn write from a crashed or concurrent writer) are skipped. apply
// must not retain the payload: its bytes are reused.
func (t *logTail) read(r io.ReaderAt, apply func(payload []byte)) error {
	if t.buf == nil {
		t.buf = make([]byte, 64*1024)
	}
	for {
		n, err := r.ReadAt(t.buf, t.off)
		t.off += int64(n)
		data := t.buf[:n]
		for {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				t.pending = append(t.pending, data...)
				break
			}
			line := data[:nl]
			if len(t.pending) > 0 {
				t.pending = append(t.pending, line...)
				line = t.pending
			}
			if payload, ok := decodeLine(line); ok {
				apply(payload)
			}
			t.pending = t.pending[:0]
			data = data[nl+1:]
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// journalRecord is the on-disk union of the three record types.
type journalRecord struct {
	T     string        `json:"t"`
	Meta  *CampaignMeta `json:"meta,omitempty"`
	Shard int           `json:"s,omitempty"`
	// Worker and Exp (lease expiry, Unix milliseconds) belong to "lease"
	// records.
	Worker string       `json:"w,omitempty"`
	Exp    int64        `json:"exp,omitempty"`
	Res    *ShardResult `json:"res,omitempty"`
}

// FileJournal implements Journal over an append-only record log shared
// by worker processes.
type FileJournal struct {
	mu   sync.Mutex
	f    journalIO
	path string
	// tail is how far catchUpLocked has read the file.
	tail logTail
	sync bool
	// rng drives the append-retry backoff jitter (nil degrades to a fixed
	// half-backoff). Deliberately not part of the campaign's deterministic
	// random streams: retry timing never influences results.
	rng *xrand.Rand
	st  journalState
}

// FileJournalOptions configures OpenFileJournalOpts.
type FileJournalOptions struct {
	// Sync fsyncs the journal after every checkpoint or meta append and
	// fsyncs the parent directory when the journal file is created, so
	// acknowledged checkpoints survive machine-level crashes (power
	// loss), not just process death. Off by default: a lost unsynced
	// tail only re-runs deterministic shards on resume.
	Sync bool
	// LeaseGrace is the wall-clock skew margin granted to lease expiries
	// written by other processes (0 = DefaultLeaseGrace, negative =
	// none). See DefaultLeaseTTL for the cross-process clock contract.
	LeaseGrace time.Duration
	// Fault, when set, wraps the journal file in a FaultFile injecting
	// the plan's deterministic I/O failure schedule (tests, chaos CI).
	// Nil falls back to the MULTIFLIP_JOURNAL_FAULTS environment plan, if
	// any.
	Fault *FaultPlan
}

// OpenFileJournal opens (creating if needed) a journal file and reads
// in its records. Opening never fails on corrupt content — bad records are
// skipped — only on I/O errors and a malformed MULTIFLIP_JOURNAL_FAULTS.
func OpenFileJournal(path string) (*FileJournal, error) {
	return OpenFileJournalOpts(path, FileJournalOptions{})
}

// OpenFileJournalOpts is OpenFileJournal with explicit durability and
// clock-skew options.
func OpenFileJournalOpts(path string, opts FileJournalOptions) (*FileJournal, error) {
	envFault, err := envFaultPlan()
	if err != nil {
		return nil, err
	}
	fault := opts.Fault
	if fault == nil {
		fault = envFault
	}
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	if opts.Sync && created {
		// Make the new directory entry itself durable: without this a
		// power loss can forget the file existed even though its first
		// records were fsynced.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	var fio journalIO = f
	if fault != nil {
		fio = NewFaultFile(f, fault)
	}
	j := &FileJournal{f: fio, path: path, sync: opts.Sync,
		rng: xrand.New(uint64(time.Now().UnixNano())),
		st:  journalState{now: time.Now, grace: opts.LeaseGrace}}
	if err := j.catchUpLocked(); err != nil {
		fio.Close()
		return nil, err
	}
	return j, nil
}

// syncDir fsyncs a directory, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: sync journal dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("core: sync journal dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("core: sync journal dir: %w", cerr)
	}
	return nil
}

// Path returns the journal file's path.
func (j *FileJournal) Path() string { return j.path }

// Meta returns the bound campaign identity (zero until Bind or until the
// file's meta record is read in).
func (j *FileJournal) Meta() CampaignMeta {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.meta
}

// catchUpLocked reads the records appended since its last call and applies
// them. Torn or corrupt lines are skipped; a trailing partial line stays
// pending. Callers hold j.mu.
func (j *FileJournal) catchUpLocked() error {
	if err := j.tail.read(j.f, j.applyPayload); err != nil {
		return j.wrapErr("read journal", err)
	}
	return nil
}

// applyPayload parses and applies one record, skipping anything
// malformed.
func (j *FileJournal) applyPayload(payload []byte) {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return
	}
	switch rec.T {
	case "meta":
		if rec.Meta != nil && !j.st.bound {
			// init only fails on invalid shape; a bad meta record is skipped
			// like any other corrupt line.
			_ = j.st.init(*rec.Meta)
		}
	case "lease":
		// Absorbed expiries are wall-clock timestamps from another
		// process's clock (or re-reads of our own appends, which
		// applyLease recognizes and ignores); the lease-liveness check
		// grants them the skew grace margin.
		j.st.applyLease(rec.Shard, rec.Worker, time.UnixMilli(rec.Exp), false)
	case "done":
		if rec.Res != nil {
			j.st.applyDone(rec.Res)
		}
	}
}

// appendAttempts bounds the append retry loop: transient I/O errors
// (ENOSPC racing a cleaner, EIO blips, short writes) get a handful of
// backed-off re-issues before the campaign gives up.
const appendAttempts = 6

// appendBackoff{Base,Cap} shape the retry backoff: exponential from
// Base, capped at Cap, jittered to [d/2, d). Variables, not constants,
// so the fault-injection tests can shrink them.
var (
	appendBackoffBase = 2 * time.Millisecond
	appendBackoffCap  = 250 * time.Millisecond
)

// appendLocked writes one record with a single O_APPEND write, retrying
// transient failures with jittered exponential backoff. durable also
// fsyncs (in sync mode) before the append counts as done. After ANY
// failure — a write error, a short write, a failed fsync — the record's
// durability is unknown, so the whole framed line is re-issued, never
// assumed written: a short first write leaves torn debris the loader
// skips, and a complete-but-unacknowledged one a duplicate the
// record-application layer already drops. Callers hold j.mu and apply
// the record after the append succeeds.
func (j *FileJournal) appendLocked(rec *journalRecord, durable bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return j.wrapErr("encode journal record", err)
	}
	line := appendLine(nil, payload)
	backoff := appendBackoffBase
	var last error
	for attempt := 0; attempt < appendAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(j.jitter(backoff))
			if backoff *= 2; backoff > appendBackoffCap {
				backoff = appendBackoffCap
			}
		}
		if _, err := j.f.Write(line); err != nil {
			last = err
			continue
		}
		if durable && j.sync {
			if err := j.f.Sync(); err != nil {
				last = err
				continue
			}
		}
		return nil
	}
	return j.wrapErr("append journal record", last)
}

// jitter spreads a backoff delay over [d/2, d) so retrying workers
// sharing a stressed filesystem don't beat in sync.
func (j *FileJournal) jitter(d time.Duration) time.Duration {
	half := d / 2
	if j.rng == nil || half <= 0 {
		return half
	}
	return half + time.Duration(j.rng.Uint64n(uint64(half)))
}

// wrapErr labels a journal error with the campaign fingerprint and file
// path, so a failed multi-process drain names which campaign file broke.
func (j *FileJournal) wrapErr(op string, err error) error {
	if j.st.bound {
		return fmt.Errorf("core: campaign %016x journal %s: %s: %w",
			j.st.meta.Fingerprint, j.path, op, err)
	}
	return fmt.Errorf("core: journal %s: %s: %w", j.path, op, err)
}

// Bind implements Journal: catch up on the file, then install or validate the
// campaign identity, writing the meta record if the file had none.
func (j *FileJournal) Bind(meta CampaignMeta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	hadMeta := j.st.bound
	if err := j.st.init(meta); err != nil {
		return err
	}
	if !hadMeta {
		return j.appendLocked(&journalRecord{T: "meta", Meta: &meta}, true)
	}
	return nil
}

// Claim implements Journal. The lease record is persisted before the
// claim is returned, so a peer reading the log sees the shard as taken.
func (j *FileJournal) Claim(worker string, ttl time.Duration) (int, ClaimState, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return 0, ClaimWait, err
	}
	shard, state := j.st.findClaim()
	if state != ClaimOK {
		return shard, state, nil
	}
	// The lease record is deliberately not fsynced even in sync mode:
	// leases are advisory, and losing one to a crash only lets a peer
	// start the shard sooner.
	exp := j.st.now().Add(ttl)
	if err := j.appendLocked(&journalRecord{T: "lease", Shard: shard, Worker: worker, Exp: exp.UnixMilli()}, false); err != nil {
		return 0, ClaimWait, err
	}
	j.st.applyLease(shard, worker, exp, true)
	return shard, ClaimOK, nil
}

// Renew implements Journal: the lease heartbeat. The renewal re-uses the
// lease-append path (and, on re-read, the same own-echo suppression), is
// never fsynced, and is dropped without error when it no longer applies
// — the shard completed, or the lease expired and a peer stole it, in
// which case extending it would stomp the thief's claim.
func (j *FileJournal) Renew(worker string, shard int, ttl time.Duration) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	if !j.st.renewable(shard, worker) {
		return nil
	}
	exp := j.st.now().Add(ttl)
	if err := j.appendLocked(&journalRecord{T: "lease", Shard: shard, Worker: worker, Exp: exp.UnixMilli()}, false); err != nil {
		return err
	}
	j.st.applyLease(shard, worker, exp, true)
	return nil
}

// Checkpoint implements Journal. A shard that is already checkpointed —
// a peer beat us to it after a lease steal — is dropped without a write:
// shard results are deterministic, so the duplicate is identical.
func (j *FileJournal) Checkpoint(res ShardResult) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	if !j.st.bound || res.Shard < 0 || res.Shard >= len(j.st.shards) {
		return fmt.Errorf("core: checkpoint shard %d outside campaign", res.Shard)
	}
	if j.st.shards[res.Shard].res != nil {
		return nil
	}
	if err := j.appendLocked(&journalRecord{T: "done", Shard: res.Shard, Res: &res}, true); err != nil {
		return err
	}
	j.st.applyDone(&res)
	return nil
}

// Results implements Journal.
func (j *FileJournal) Results() ([]*ShardResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return nil, err
	}
	return j.st.results(), nil
}

// Status implements Journal.
func (j *FileJournal) Status() (CampaignStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return CampaignStatus{}, err
	}
	if !j.st.bound {
		return CampaignStatus{}, fmt.Errorf("core: journal %s holds no campaign meta record", j.path)
	}
	return j.st.status(), nil
}

// Close implements Journal.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// JournalInfo pairs a journal file with its campaign identity and
// progress, for `fi -status`.
type JournalInfo struct {
	Path   string
	Meta   CampaignMeta
	Status CampaignStatus
	// Err, when set, is why the file could not be listed; Meta and
	// Status are then zero.
	Err error
}

// InspectDir scans a journal directory and reports every campaign-*.mfj
// file in it, sorted by path. It degrades per entry rather than failing
// the scan: a file that cannot be opened, or whose meta record is
// missing or torn, is reported with its Err set, and so is a zero-length
// one ("no records yet": another process may have just created it).
// Files of other names, such as the memo-*.mfj files older versions
// wrote, are ignored. A directory that does not exist or cannot be read
// fails the scan, and so does a malformed MULTIFLIP_JOURNAL_FAULTS,
// which fails every journal open.
func InspectDir(dir string) ([]JournalInfo, error) {
	if _, err := envFaultPlan(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("core: inspect journals: %w", err)
	}
	var out []JournalInfo
	for _, e := range entries {
		if ok, _ := filepath.Match("campaign-*.mfj", e.Name()); ok {
			out = append(out, inspectJournal(filepath.Join(dir, e.Name())))
		}
	}
	return out, nil
}

// inspectJournal reads one campaign journal for InspectDir.
func inspectJournal(path string) JournalInfo {
	info := JournalInfo{Path: path}
	if fi, err := os.Stat(path); err != nil {
		info.Err = err
		return info
	} else if fi.Size() == 0 {
		info.Err = fmt.Errorf("core: journal %s: no records yet", path)
		return info
	}
	j, err := OpenFileJournal(path)
	if err != nil {
		info.Err = err
		return info
	}
	defer j.Close()
	st, err := j.Status()
	if err != nil {
		info.Err = err
		return info
	}
	info.Meta, info.Status = j.Meta(), st
	return info
}
