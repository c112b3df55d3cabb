package core

// FileJournal: the durable Journal. Campaigns journal into append-only
// logs of checksummed records, one per line:
//
//	crc32(body) as 8 hex digits, a space, the body, '\n'
//
// A Service keeps one log per journal directory, journal.mfj, for every
// campaign journaled there. Its record bodies carry the campaign's
// fingerprint ahead of a JSON payload:
//
//	fingerprint as 16 hex digits, a space, the JSON payload
//
// so the log is indexed by campaign without decoding anything: a
// campaign decodes only its own records. A file of one campaign — the
// campaign-<fp>.mfj files older versions wrote per campaign, or one
// opened with OpenFileJournal — has the JSON payload alone as its body.
// Both kinds share the reader and the appender below.
//
// Record types (the "t" field): "meta" (campaign identity, first
// record), "start" (campaign identity written by a run that does not
// resume: the campaign's earlier records stop counting), "lease"
// (shard, worker, expiry) and "done" (shard checkpoint). Each record is
// written with a single O_APPEND write, so concurrent worker processes
// sharing a log interleave whole records on any POSIX filesystem. There
// is no compaction and, by default, no fsync: a crash can lose the tail
// of the log, never the middle, and whatever a torn tail loses is
// re-executed deterministically on resume. FileJournalOptions.Sync
// upgrades durability for machine-level crashes (power loss):
// checkpoint, meta and start records are fsynced after their append,
// and the parent directory is fsynced when the log is created, so an
// acknowledged checkpoint survives anything short of media failure.
// Lease records are advisory and are deliberately never synced — losing
// one costs at most a duplicate shard run.
//
// The loader is tolerant by construction: a line whose checksum or JSON
// does not parse is skipped (a torn write from a crashed or concurrent
// writer), a trailing partial line is left pending until its newline
// arrives, and an inconsistent "done" record is dropped by the shared
// journalState validation. The worst case of any corruption is a shard
// that re-runs — results are unaffected. FuzzJournalLoader pins this.
//
// Every call first reads in the records appended by other processes
// since the last read, so a FileJournal is also a live view of a
// campaign being drained by a fleet. Within a process, the campaigns
// that share a directory and a worker ID share one open log: one
// handle, one read buffer and one tail, closed with the last campaign
// using it. A record this process appends where the tail stands is
// applied from memory and the tail moves past it, so a process alone
// in a directory never decodes its own records again.

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
	"slices"
	"sync"
	"time"

	"multiflip/internal/xrand"
)

// logName is the file name of a journal directory's log.
const logName = "journal.mfj"

// journalIO is the file surface a journal log actually uses. *os.File
// implements it directly; FaultFile (faultjournal.go) wraps one to
// inject deterministic I/O failures for the robustness tests and the
// chaos CI job.
type journalIO interface {
	io.ReaderAt
	io.Writer
	// Seek(0, io.SeekCurrent) after an append reports where the
	// O_APPEND write ended.
	io.Seeker
	Sync() error
	Close() error
}

// appendLine appends one framed record to dst: the body's CRC-32 as 8
// lowercase hex digits, a space, the body, '\n'.
func appendLine(dst, body []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	dst = hex.AppendEncode(dst, sum[:])
	dst = append(dst, ' ')
	dst = append(dst, body...)
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
	body := line[9:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum[:]) {
		return nil, false
	}
	return body, true
}

// appendTag appends a directory-log record's campaign tag to dst: the
// fingerprint as 16 lowercase hex digits and a space.
func appendTag(dst []byte, fp uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], fp)
	return append(hex.AppendEncode(dst, b[:]), ' ')
}

// splitTag splits a directory-log record body into its campaign
// fingerprint and JSON payload, reporting whether the tag held: exactly
// 16 hex digits and a space.
func splitTag(body []byte) (uint64, []byte, bool) {
	if len(body) < 17 || body[16] != ' ' {
		return 0, nil, false
	}
	var b [8]byte
	if _, err := hex.Decode(b[:], body[:16]); err != nil {
		return 0, nil, false
	}
	return binary.BigEndian.Uint64(b[:]), body[17:], true
}

// logTail reads an append-only record file incrementally: it remembers
// how far it has read, keeps a trailing partial line pending until its
// newline lands, and reuses one read buffer for the file's lifetime.
type logTail struct {
	off     int64
	pending []byte
	buf     []byte
}

// read hands apply every complete record appended to r since the last
// read: the offset of its line, the line's length with its newline,
// and its body. Lines whose frame or checksum does not hold (a torn
// write from a crashed or concurrent writer) are skipped. apply must
// not retain the body: its bytes are reused.
func (t *logTail) read(r io.ReaderAt, apply func(off int64, n int, body []byte)) error {
	if t.buf == nil {
		t.buf = make([]byte, 64*1024)
	}
	for {
		n, err := r.ReadAt(t.buf, t.off)
		pos := t.off // the file offset of data[0]
		t.off += int64(n)
		data := t.buf[:n]
		for {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				t.pending = append(t.pending, data...)
				break
			}
			line := data[:nl]
			start := pos - int64(len(t.pending))
			if len(t.pending) > 0 {
				t.pending = append(t.pending, line...)
				line = t.pending
			}
			if body, ok := decodeLine(line); ok {
				apply(start, len(line)+1, body)
			}
			t.pending = t.pending[:0]
			data = data[nl+1:]
			pos += int64(nl + 1)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// journalRecord is the on-disk union of the record types.
type journalRecord struct {
	T     string        `json:"t"`
	Meta  *CampaignMeta `json:"meta,omitempty"`
	Shard int           `json:"s,omitempty"`
	// Worker and Exp (lease expiry, Unix milliseconds) belong to "lease"
	// records.
	Worker string       `json:"w,omitempty"`
	Exp    int64        `json:"exp,omitempty"`
	Res    *ShardResult `json:"res,omitempty"`
	// expAt is the expiry of a lease this process stamps, with its
	// monotonic clock reading.
	expAt time.Time
}

// apply applies one record to the campaign state, skipping anything
// malformed. mine marks a record this process appended, whose lease
// expiry is its own clock's.
func (st *journalState) apply(rec *journalRecord, mine bool) {
	switch rec.T {
	case "start":
		// The campaign starts over; a start with an invalid meta is
		// skipped like any other corrupt line.
		if rec.Meta != nil {
			fresh := journalState{now: st.now, grace: st.grace}
			if fresh.init(*rec.Meta) == nil {
				*st = fresh
			}
		}
	case "meta":
		if rec.Meta != nil && !st.bound {
			_ = st.init(*rec.Meta) // an invalid meta is skipped
		}
	case "lease":
		if mine {
			st.applyLease(rec.Shard, rec.Worker, rec.expAt, true)
			return
		}
		// Absorbed expiries are wall-clock timestamps from another
		// process's clock (or re-reads of our own appends, which
		// applyLease recognizes and ignores); the lease-liveness check
		// grants them the skew grace margin.
		st.applyLease(rec.Shard, rec.Worker, time.UnixMilli(rec.Exp), false)
	case "done":
		if rec.Res != nil {
			st.applyDone(rec.Res)
		}
	}
}

// journalLog is one open record file, shared by every journal reading
// and appending through it: one handle, one read buffer, one tail.
type journalLog struct {
	path string
	// tagged marks a directory log, whose records carry their campaign's
	// fingerprint; a file of one campaign has every record untagged.
	tagged bool
	rng    *xrand.Rand // append-retry jitter; never part of any result

	mu sync.Mutex // guards the fields below and the campaigns' states
	f  journalIO  // nil while no journal has the log open
	fi os.FileInfo
	// newFile marks a log this handle created whose directory entry is
	// not yet fsynced.
	newFile bool
	tail    logTail
	camps   map[uint64]*logCampaign
	// mine is the record this handle has just appended past the tail (a
	// peer appended in between), at offset mineAt: the tail applies it
	// from memory when it reaches that offset.
	mine   *journalRecord
	mineAt int64
	// scratch is the read buffer for loading a campaign's records.
	scratch []byte

	// refs counts the journals open on the log (guarded by logs.mu).
	refs int
}

// logCampaign is one campaign's share of a log.
type logCampaign struct {
	// recs locates the campaign's records, in log order.
	recs []logRef
	// st is the campaign's state while a journal has it open, else nil.
	st    *journalState
	views int
}

// logRef locates one record line: its offset and length with newline.
type logRef struct {
	off int64
	n   int
}

// logKey names one drainer's handle on a directory log.
type logKey struct {
	path, worker string
	fault        *FaultPlan
}

// logs holds the directory logs this process has opened, by drainer.
// An entry outlives its handle, so a log reopened for a later campaign
// reads only what was appended since; once maxLogs entries exist, those
// without a handle are dropped.
var logs = struct {
	mu sync.Mutex
	m  map[logKey]*journalLog
}{m: make(map[logKey]*journalLog)}

const maxLogs = 64

func newLog(path string, tagged bool) *journalLog {
	return &journalLog{path: path, tagged: tagged,
		rng:   xrand.New(uint64(time.Now().UnixNano())),
		camps: make(map[uint64]*logCampaign)}
}

// open opens the log's file for appending and reading, creating it, and
// its directory, if needed. A file other than the one the log last
// read — created anew, or not the same file, or shorter than the tail —
// is read afresh.
func (l *journalLog) open(fault *FaultPlan) error {
	created := false
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
			return fmt.Errorf("core: journal dir: %w", err)
		}
		f, err = os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		created = err == nil
		l.newFile = l.newFile || created
	}
	if err != nil {
		return fmt.Errorf("core: open journal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("core: open journal: %w", err)
	}
	if l.fi != nil && (created || !os.SameFile(l.fi, fi) || fi.Size() < l.tail.off) {
		l.tail = logTail{}
		l.camps = make(map[uint64]*logCampaign)
	}
	l.fi = fi
	l.f = f
	if fault != nil {
		l.f = NewFaultFile(f, fault)
	}
	return nil
}

// release drops one journal's hold on the log, closing its file with
// the last.
func (l *journalLog) release() error {
	logs.mu.Lock()
	defer logs.mu.Unlock()
	if l.refs--; l.refs > 0 {
		return nil
	}
	err := l.f.Close()
	l.f, l.tail.buf, l.scratch = nil, nil, nil
	return err
}

// syncDirOnce fsyncs the log's directory if this handle created the log
// and has not yet done so: without it a power loss can forget the file
// existed even though its first records were fsynced. Callers hold l.mu.
func (l *journalLog) syncDirOnce() error {
	if !l.newFile {
		return nil
	}
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return err
	}
	l.newFile = false
	return nil
}

// campaign returns campaign fp's share of the log, adding it if new.
func (l *journalLog) campaign(fp uint64) *logCampaign {
	c := l.camps[fp]
	if c == nil {
		c = &logCampaign{}
		l.camps[fp] = c
	}
	return c
}

// split returns a record body's campaign and payload: the tag of a
// directory log's record, campaign 0 for a file of one campaign.
func (l *journalLog) split(body []byte) (uint64, []byte, bool) {
	if l.tagged {
		return splitTag(body)
	}
	return 0, body, true
}

// catchUp reads the records appended since its last call, indexes them
// by campaign and applies each to its campaign's state, when open. Torn
// or corrupt lines are skipped; a trailing partial line stays pending.
// Callers hold l.mu.
func (l *journalLog) catchUp() error {
	return l.tail.read(l.f, l.applyLine)
}

// applyLine indexes one record line read by the tail and applies it.
func (l *journalLog) applyLine(off int64, n int, body []byte) {
	fp, payload, ok := l.split(body)
	if !ok {
		return
	}
	c := l.campaign(fp)
	c.recs = append(c.recs, logRef{off, n})
	if l.mine != nil && off == l.mineAt {
		rec := l.mine
		l.mine = nil
		if c.st != nil {
			c.st.apply(rec, true)
		}
		return
	}
	if c.st == nil {
		return
	}
	var rec journalRecord
	if json.Unmarshal(payload, &rec) == nil {
		c.st.apply(&rec, false)
	}
}

// load gives campaign c (fingerprint fp) a state decoded from its own
// records, read by their offsets. Callers hold l.mu.
func (l *journalLog) load(c *logCampaign, fp uint64, grace time.Duration) error {
	st := &journalState{now: time.Now, grace: grace}
	for _, r := range c.recs {
		if cap(l.scratch) < r.n {
			l.scratch = make([]byte, r.n)
		}
		line := l.scratch[:r.n]
		if n, err := l.f.ReadAt(line, r.off); n < r.n {
			if err != io.EOF {
				return err
			}
			continue // the file shrank under the record
		}
		body, ok := decodeLine(line[:r.n-1])
		if !ok || line[r.n-1] != '\n' {
			continue
		}
		got, payload, ok := l.split(body)
		var rec journalRecord
		if ok && got == fp && json.Unmarshal(payload, &rec) == nil {
			st.apply(&rec, false)
		}
	}
	c.st = st
	return nil
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

// append writes rec as one record of campaign c (fingerprint fp) with a
// single O_APPEND write, retrying transient failures with jittered
// exponential backoff, then applies it to the campaign's state. durable
// also fsyncs before the append counts as done. After ANY failure — a
// write error, a short write, a failed fsync — the record's durability
// is unknown, so the whole framed line is re-issued, never assumed
// written: a short first write leaves torn debris the loader skips, and
// a complete-but-unacknowledged one a duplicate the record-application
// layer already drops.
//
// A record that lands where the tail stands is applied from memory and
// the tail moves past it. One that lands further on, past a peer's
// records, is applied in log order as the tail reads up to it — still
// from memory, never decoded — or after the records read, if it merged
// into a torn line. Callers hold l.mu and have caught up.
func (l *journalLog) append(c *logCampaign, fp uint64, rec *journalRecord, durable bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode journal record: %w", err)
	}
	var line []byte
	if l.tagged {
		line = appendLine(nil, append(appendTag(nil, fp), payload...))
	} else {
		line = appendLine(nil, payload)
	}
	if err := l.write(line, durable); err != nil {
		return err
	}
	end, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("locate journal record: %w", err)
	}
	at := end - int64(len(line))
	if at == l.tail.off {
		l.tail.off = end
		l.tail.pending = l.tail.pending[:0]
		c.recs = append(c.recs, logRef{at, len(line)})
		c.st.apply(rec, true)
		return nil
	}
	l.mine, l.mineAt = rec, at
	err = l.catchUp()
	if l.mine != nil {
		l.mine = nil
		c.st.apply(rec, true)
	}
	if err != nil {
		return fmt.Errorf("read journal: %w", err)
	}
	return nil
}

// write issues one framed line, retrying as append describes.
func (l *journalLog) write(line []byte, durable bool) error {
	backoff := appendBackoffBase
	var last error
	for attempt := 0; attempt < appendAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(l.jitter(backoff))
			if backoff *= 2; backoff > appendBackoffCap {
				backoff = appendBackoffCap
			}
		}
		if _, err := l.f.Write(line); err != nil {
			last = err
			continue
		}
		if durable {
			if err := l.f.Sync(); err != nil {
				last = err
				continue
			}
		}
		return nil
	}
	return fmt.Errorf("append journal record: %w", last)
}

// jitter spreads a backoff delay over [d/2, d) so retrying workers
// sharing a stressed filesystem don't beat in sync.
func (l *journalLog) jitter(d time.Duration) time.Duration {
	half := d / 2
	if l.rng == nil || half <= 0 {
		return half
	}
	return half + time.Duration(l.rng.Uint64n(uint64(half)))
}

// FileJournal implements Journal over an append-only record log shared
// by worker processes: one campaign's view of a directory log, or a
// file of one campaign.
type FileJournal struct {
	log *journalLog
	c   *logCampaign
	// fp is the campaign's fingerprint in a directory log.
	fp uint64
	// fresh marks a journal whose Bind starts the campaign over.
	fresh  bool
	sync   bool
	closed bool
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

// faultPlan returns the fault plan a journal opened with opts runs
// under: opts.Fault, else the environment's.
func (opts *FileJournalOptions) faultPlan() (*FaultPlan, error) {
	env, err := envFaultPlan()
	if err != nil {
		return nil, err
	}
	if opts.Fault != nil {
		return opts.Fault, nil
	}
	return env, nil
}

// OpenFileJournal opens (creating it and its directory if needed) a
// journal file of one campaign and reads in its records. Opening never
// fails on corrupt content — bad records are skipped — only on I/O
// errors and a malformed MULTIFLIP_JOURNAL_FAULTS.
func OpenFileJournal(path string) (*FileJournal, error) {
	return OpenFileJournalOpts(path, FileJournalOptions{})
}

// OpenFileJournalOpts is OpenFileJournal with explicit durability and
// clock-skew options.
func OpenFileJournalOpts(path string, opts FileJournalOptions) (*FileJournal, error) {
	fault, err := opts.faultPlan()
	if err != nil {
		return nil, err
	}
	l := newLog(path, false)
	if err := l.open(fault); err != nil {
		return nil, err
	}
	if opts.Sync {
		if err := l.syncDirOnce(); err != nil {
			l.f.Close()
			return nil, err
		}
	}
	l.refs = 1
	c := l.campaign(0)
	c.st = &journalState{now: time.Now, grace: opts.LeaseGrace}
	c.views = 1
	j := &FileJournal{log: l, c: c, sync: opts.Sync}
	if err := l.catchUp(); err != nil {
		l.f.Close()
		return nil, j.wrapErr("read journal", err)
	}
	return j, nil
}

// openCampaign opens campaign fp's journal in dir for the drainer
// worker: its view of the directory log, shared with every campaign the
// drainer journals there, or, when resuming a campaign an older version
// journaled in a file of its own, that file. Without resume, Bind starts
// the campaign over, and such a file is deleted.
func openCampaign(dir, worker string, fp uint64, resume bool, opts FileJournalOptions) (*FileJournal, error) {
	fault, err := opts.faultPlan()
	if err != nil {
		return nil, err
	}
	own := filepath.Join(dir, fmt.Sprintf("campaign-%016x.mfj", fp))
	if _, err := os.Lstat(own); err == nil {
		if resume {
			return OpenFileJournalOpts(own, opts)
		}
		if err := os.Remove(own); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("core: reset journal: %w", err)
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("core: journal dir: %w", err)
	}
	l, err := acquireLog(logKey{filepath.Join(abs, logName), worker, fault})
	if err != nil {
		return nil, err
	}
	j := &FileJournal{log: l, fp: fp, fresh: !resume, sync: opts.Sync}
	if err := j.attach(resume, opts); err != nil {
		l.release()
		return nil, err
	}
	return j, nil
}

// attach catches the log up and attaches the journal to its campaign's
// state, decoding the campaign's records into it when resuming a
// campaign no other journal of the drainer has open.
func (j *FileJournal) attach(resume bool, opts FileJournalOptions) error {
	l := j.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	if opts.Sync {
		if err := l.syncDirOnce(); err != nil {
			return err
		}
	}
	c := l.campaign(j.fp)
	if c.st == nil {
		if !resume {
			c.st = &journalState{now: time.Now, grace: opts.LeaseGrace}
		} else if err := l.load(c, j.fp, opts.LeaseGrace); err != nil {
			return j.wrapErr("read journal", err)
		}
	}
	c.views++
	j.c = c
	return nil
}

// acquireLog returns the drainer's open handle on a directory log,
// opening it if no campaign has it open.
func acquireLog(key logKey) (*journalLog, error) {
	logs.mu.Lock()
	defer logs.mu.Unlock()
	l := logs.m[key]
	if l == nil {
		if len(logs.m) >= maxLogs {
			for k, o := range logs.m {
				if o.refs == 0 {
					delete(logs.m, k)
				}
			}
		}
		l = newLog(key.path, true)
	}
	if l.refs == 0 {
		if err := l.open(key.fault); err != nil {
			return nil, err
		}
		logs.m[key] = l
	}
	l.refs++
	return l, nil
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
func (j *FileJournal) Path() string { return j.log.path }

// Meta returns the bound campaign identity (zero until Bind or until the
// file's meta record is read in).
func (j *FileJournal) Meta() CampaignMeta {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	return j.c.st.meta
}

// catchUpLocked reads in the records appended since the last read.
// Callers hold j.log.mu.
func (j *FileJournal) catchUpLocked() error {
	if err := j.log.catchUp(); err != nil {
		return j.wrapErr("read journal", err)
	}
	return nil
}

// append appends one of the campaign's records; see journalLog.append.
// durable records are fsynced in sync mode. Callers hold j.log.mu.
func (j *FileJournal) append(rec *journalRecord, durable bool) error {
	if err := j.log.append(j.c, j.fp, rec, durable && j.sync); err != nil {
		return j.wrapErr("", err)
	}
	return nil
}

// wrapErr labels a journal error with the campaign fingerprint and file
// path, so a failed multi-process drain names which campaign broke.
func (j *FileJournal) wrapErr(op string, err error) error {
	if op != "" {
		op += ": "
	}
	if j.c != nil && j.c.st != nil && j.c.st.bound {
		st := j.c.st
		return fmt.Errorf("core: campaign %016x journal %s: %s%w", st.meta.Fingerprint, j.log.path, op, err)
	}
	return fmt.Errorf("core: journal %s: %s%w", j.log.path, op, err)
}

// Bind implements Journal: catch up on the log, then install or
// validate the campaign identity, writing the meta record if the log
// had none. A journal opened without resume instead writes a start
// record, and the campaign starts over.
func (j *FileJournal) Bind(meta CampaignMeta) error {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	if j.log.tagged && meta.Fingerprint != j.fp {
		return fmt.Errorf("core: journal of campaign %016x cannot bind campaign %016x", j.fp, meta.Fingerprint)
	}
	if j.fresh {
		if err := (&journalState{}).init(meta); err != nil {
			return err
		}
		j.fresh = false
		return j.append(&journalRecord{T: "start", Meta: &meta}, true)
	}
	st := j.c.st
	hadMeta := st.bound
	if err := st.init(meta); err != nil {
		return err
	}
	if !hadMeta {
		return j.append(&journalRecord{T: "meta", Meta: &meta}, true)
	}
	return nil
}

// Claim implements Journal. The lease record is persisted before the
// claim is returned, so a peer reading the log sees the shard as taken.
func (j *FileJournal) Claim(worker string, ttl time.Duration) (int, ClaimState, error) {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return 0, ClaimWait, err
	}
	st := j.c.st
	shard, state := st.findClaim()
	if state != ClaimOK {
		return shard, state, nil
	}
	// The lease record is deliberately not fsynced even in sync mode:
	// leases are advisory, and losing one to a crash only lets a peer
	// start the shard sooner.
	exp := st.now().Add(ttl)
	if err := j.append(&journalRecord{T: "lease", Shard: shard, Worker: worker, Exp: exp.UnixMilli(), expAt: exp}, false); err != nil {
		return 0, ClaimWait, err
	}
	return shard, ClaimOK, nil
}

// Renew implements Journal: the lease heartbeat. The renewal re-uses the
// lease-append path (and, on re-read, the same own-echo suppression), is
// never fsynced, and is dropped without error when it no longer applies
// — the shard completed, or the lease expired and a peer stole it, in
// which case extending it would stomp the thief's claim.
func (j *FileJournal) Renew(worker string, shard int, ttl time.Duration) error {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	st := j.c.st
	if !st.renewable(shard, worker) {
		return nil
	}
	exp := st.now().Add(ttl)
	return j.append(&journalRecord{T: "lease", Shard: shard, Worker: worker, Exp: exp.UnixMilli(), expAt: exp}, false)
}

// Checkpoint implements Journal. A shard that is already checkpointed —
// a peer beat us to it after a lease steal — is dropped without a write:
// shard results are deterministic, so the duplicate is identical.
func (j *FileJournal) Checkpoint(res ShardResult) error {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return err
	}
	st := j.c.st
	if !st.bound || res.Shard < 0 || res.Shard >= len(st.shards) {
		return fmt.Errorf("core: checkpoint shard %d outside campaign", res.Shard)
	}
	if st.shards[res.Shard].res != nil {
		return nil
	}
	return j.append(&journalRecord{T: "done", Shard: res.Shard, Res: &res}, true)
}

// Results implements Journal.
func (j *FileJournal) Results() ([]*ShardResult, error) {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return nil, err
	}
	return j.c.st.results(), nil
}

// Status implements Journal.
func (j *FileJournal) Status() (CampaignStatus, error) {
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	if err := j.catchUpLocked(); err != nil {
		return CampaignStatus{}, err
	}
	if !j.c.st.bound {
		return CampaignStatus{}, fmt.Errorf("core: journal %s holds no campaign meta record", j.log.path)
	}
	return j.c.st.status(), nil
}

// Close implements Journal. A campaign's decoded state is dropped with
// the last journal open on it; the log's file is closed with the last
// journal open on the log.
func (j *FileJournal) Close() error {
	j.log.mu.Lock()
	if j.closed {
		j.log.mu.Unlock()
		return nil
	}
	j.closed = true
	if j.c.views--; j.c.views == 0 && j.log.tagged {
		j.c.st = nil
	}
	j.log.mu.Unlock()
	return j.log.release()
}

// JournalInfo pairs a journaled campaign with its identity and
// progress, for `fi -status`.
type JournalInfo struct {
	// Path is the file holding the campaign's records: the directory's
	// log, or a campaign-<fp>.mfj file of one campaign.
	Path   string
	Meta   CampaignMeta
	Status CampaignStatus
	// Err, when set, is why the campaign, or the file, could not be
	// listed; Meta and Status are then zero.
	Err error
}

// InspectDir scans a journal directory and reports every campaign in it
// without writing anything: each campaign of the directory's log, and
// each campaign-*.mfj file older versions wrote per campaign, sorted by
// path and, within the log, by fingerprint. It degrades per entry
// rather than failing the scan: a log it cannot read is reported as one
// entry with Err set, and so is a campaign file that cannot be opened,
// whose meta record is missing or torn, or that is zero-length ("no
// records yet": another process may have just created it), and a
// campaign of the log whose meta record is missing. Files of other
// names, such as the memo-*.mfj files older versions wrote, are
// ignored. A directory that does not exist or cannot be read fails the
// scan, and so does a malformed MULTIFLIP_JOURNAL_FAULTS, which fails
// every journal open.
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
		path := filepath.Join(dir, e.Name())
		if e.Name() == logName {
			out = append(out, inspectFile(path, true)...)
		} else if ok, _ := filepath.Match("campaign-*.mfj", e.Name()); ok {
			out = append(out, inspectFile(path, false)...)
		}
	}
	return out, nil
}

// inspectFile reads a journal file, opened read-only, for InspectDir:
// each campaign of a directory log (tagged), or the campaign of a file
// of its own.
func inspectFile(path string, tagged bool) []JournalInfo {
	failed := func(err error) []JournalInfo { return []JournalInfo{{Path: path, Err: err}} }
	f, err := os.Open(path)
	if err != nil {
		return failed(err)
	}
	defer f.Close()
	l := newLog(path, tagged)
	l.f = f
	if err := l.catchUp(); err != nil {
		return failed(fmt.Errorf("core: journal %s: %w", path, err))
	}
	if !tagged {
		if l.tail.off == 0 {
			return failed(fmt.Errorf("core: journal %s: no records yet", path))
		}
		l.campaign(0)
	}
	fps := make([]uint64, 0, len(l.camps))
	for fp := range l.camps {
		fps = append(fps, fp)
	}
	slices.Sort(fps)
	out := make([]JournalInfo, 0, len(fps))
	for _, fp := range fps {
		info := JournalInfo{Path: path}
		name := "journal " + path
		if tagged {
			name += fmt.Sprintf(": campaign %016x", fp)
		}
		c := l.camps[fp]
		switch err := l.load(c, fp, 0); {
		case err != nil:
			info.Err = fmt.Errorf("core: %s: %w", name, err)
		case !c.st.bound:
			info.Err = fmt.Errorf("core: %s holds no campaign meta record", name)
		default:
			info.Meta, info.Status = c.st.meta, c.st.status()
		}
		out = append(out, info)
	}
	return out
}
