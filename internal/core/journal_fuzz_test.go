package core_test

// Fuzzing the journal loader against crash debris: a journal truncated
// at an arbitrary byte (a torn final write) with arbitrary bytes
// appended (a partial record from a dying writer, or plain corruption).
// Each case mutates a file of one campaign and a directory log holding
// two campaigns' records, a torn line and one campaign's restart. The
// loader's contract under any such mutation: never error, never panic,
// recover every checkpoint whose record survived intact — in a
// restarted campaign, only those written after its start record, if
// that survived — and never invent or alter one.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/vm"
)

// fuzzMeta is the synthetic campaign every fuzz case journals: 5 shards
// of 8 experiments, with records.
func fuzzMeta() core.CampaignMeta {
	return core.CampaignMeta{Fingerprint: 0xfedc, Model: "fuzz", N: 40, ShardSize: 8, Seed: 9, Record: true}
}

// syntheticShard builds a deterministic, validation-passing checkpoint
// for one shard of the fuzz campaign.
func syntheticShard(meta core.CampaignMeta, shard int) core.ShardResult {
	return syntheticRun(meta, shard, 0)
}

// syntheticRun is syntheticShard for one run of the campaign: the
// checkpoints of different runs record different candidates.
func syntheticRun(meta core.CampaignMeta, shard, run int) core.ShardResult {
	lo, hi := meta.Span(shard)
	sr := core.ShardResult{Shard: shard}
	for i := lo; i < hi; i++ {
		exp := core.Experiment{
			Cand:      uint64(i*7 + run*1000),
			Bit:       i % 64,
			Outcome:   core.Outcome(1 + i%core.NumOutcomes),
			Activated: i % 3,
		}
		if exp.Outcome == core.OutcomeException {
			exp.Trap = vm.TrapKind(1 + i%(core.NumTrapKinds-1))
		}
		sr.Add(&exp, i%5 == 0)
		sr.Experiments = append(sr.Experiments, exp)
	}
	return sr
}

func FuzzJournalLoader(f *testing.F) {
	f.Add(byte(0), uint16(0), []byte(nil))
	f.Add(byte(3), uint16(77), []byte(nil))
	f.Add(byte(5), uint16(65535), []byte("tail"))
	f.Add(byte(2), uint16(300), []byte("00000000 {\"t\":\"done\",\"s\":1}\n"))
	f.Add(byte(1), uint16(9), []byte("\n\n\x00\xff garbage \n"))
	f.Fuzz(func(t *testing.T, nDone byte, cut uint16, garbage []byte) {
		fuzzCampaignFile(t, nDone, cut, garbage)
		fuzzDirLog(t, nDone, cut, garbage)
	})
}

// mutate truncates data at cut (modulo its length) and appends garbage,
// returning the result and the truncation point.
func mutate(data []byte, cut uint16, garbage []byte) ([]byte, int64) {
	k := int(cut) % (len(data) + 1)
	return append(data[:k:k], garbage...), int64(k)
}

// fuzzCampaignFile checks the loader on a mutated file of one campaign.
func fuzzCampaignFile(t *testing.T, nDone byte, cut uint16, garbage []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign-fuzz.mfj")
	j, err := core.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := fuzzMeta()
	if err := j.Bind(meta); err != nil {
		t.Fatal(err)
	}
	done := int(nDone) % (meta.NumShards() + 1)
	// sizeAfter[s] is the file size once shard s's record is fully
	// written: the record survives any cut at or past it.
	sizeAfter := make([]int64, done)
	want := make(map[int]core.ShardResult, done)
	for s := 0; s < done; s++ {
		sr := syntheticShard(meta, s)
		if err := j.Checkpoint(sr); err != nil {
			t.Fatal(err)
		}
		want[s] = sr
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizeAfter[s] = fi.Size()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Mutate: truncate at an arbitrary byte, append arbitrary bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated, k64 := mutate(data, cut, garbage)
	k := int(k64)
	mutPath := filepath.Join(dir, "campaign-mut.mfj")
	if err := os.WriteFile(mutPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(pass string) []*core.ShardResult {
		mj, err := core.OpenFileJournal(mutPath)
		if err != nil {
			t.Fatalf("%s: loader errored on mutated journal: %v", pass, err)
		}
		defer mj.Close()
		results, err := mj.Results()
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		// Anything recovered from a real checkpoint must be bit-identical
		// to what was journaled. (Fuzz-crafted garbage could in principle
		// append a brand-new valid record — that is legitimate input, not
		// corruption — so unknown shards are not an error.)
		for _, sr := range results {
			if w, ok := want[sr.Shard]; ok && !reflect.DeepEqual(*sr, w) {
				t.Fatalf("%s: shard %d recovered altered", pass, sr.Shard)
			}
		}
		// Every checkpoint fully before the cut must survive: torn tails
		// and appended garbage may only cost records they overlap.
		recovered := make(map[int]bool, len(results))
		for _, sr := range results {
			recovered[sr.Shard] = true
		}
		for s := 0; s < done; s++ {
			if int64(k) >= sizeAfter[s] && !recovered[s] {
				t.Fatalf("%s: shard %d's intact checkpoint lost (cut %d >= %d)", pass, s, k, sizeAfter[s])
			}
		}
		return results
	}
	first := check("load")
	second := check("reload")
	if len(first) != len(second) {
		t.Fatalf("reload recovered %d shards, first load %d", len(second), len(first))
	}
}

// fuzzDirLog checks the loader on a mutated directory log. Campaigns A
// and B checkpoint shards in turn, a torn line lands between their
// records, then A starts over and checkpoints its shards again with
// different records.
func fuzzDirLog(t *testing.T, nDone byte, cut uint16, garbage []byte) {
	metaA, metaB := fuzzMeta(), fuzzMeta()
	metaA.Fingerprint, metaB.Fingerprint, metaB.Seed = 0xa, 0xb, 10
	done := int(nDone) % (metaA.NumShards() + 1)
	dir := t.TempDir()
	log := filepath.Join(dir, "journal.mfj")
	size := func() int64 {
		fi, err := os.Stat(log)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	open := func(dir, worker string, meta core.CampaignMeta, resume bool) *core.FileJournal {
		j, err := core.OpenCampaignJournal(dir, worker, meta.Fingerprint, resume, core.FileJournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// written is one checkpoint in the log: its campaign, run, record,
	// and the log's size once it is fully written.
	type written struct {
		fp   uint64
		run  int
		sr   core.ShardResult
		size int64
	}
	var recs []written
	checkpoint := func(j *core.FileJournal, meta core.CampaignMeta, shard, run int) {
		sr := syntheticRun(meta, shard, run)
		if err := j.Checkpoint(sr); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, written{meta.Fingerprint, run, sr, size()})
	}
	a, b := open(dir, "w", metaA, false), open(dir, "w", metaB, false)
	for _, bind := range []struct {
		j    *core.FileJournal
		meta core.CampaignMeta
	}{{a, metaA}, {b, metaB}} {
		if err := bind.j.Bind(bind.meta); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < done; s++ {
		checkpoint(a, metaA, s, 0)
		checkpoint(b, metaB, s, 0)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn line from a peer that died mid-write, then A's restart.
	torn, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write([]byte("0badc0de 000000000000000a {\"t\":\"done\",\"s\":0,\"res\n")); err != nil {
		t.Fatal(err)
	}
	if err := torn.Close(); err != nil {
		t.Fatal(err)
	}
	a = open(dir, "w", metaA, false)
	if err := a.Bind(metaA); err != nil {
		t.Fatal(err)
	}
	restarted := size()
	for s := 0; s < done; s++ {
		checkpoint(a, metaA, s, 1)
	}
	for _, j := range []*core.FileJournal{a, b} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	mutated, k := mutate(data, cut, garbage)
	mutDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(mutDir, "journal.mfj"), mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	// A's current run is its restart if the start record survived.
	runA := 0
	if k >= restarted {
		runA = 1
	}
	check := func(pass, worker string) int {
		recovered := 0
		for _, meta := range []core.CampaignMeta{metaA, metaB} {
			run := 0
			if meta.Fingerprint == metaA.Fingerprint {
				run = runA
			}
			j := open(mutDir, worker, meta, true)
			results, err := j.Results()
			if err != nil {
				t.Fatalf("%s: %v", pass, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got := make(map[int]*core.ShardResult, len(results))
			for _, sr := range results {
				got[sr.Shard] = sr
			}
			for _, w := range recs {
				if w.fp != meta.Fingerprint || w.run != run {
					continue
				}
				sr, ok := got[w.sr.Shard]
				if ok && !reflect.DeepEqual(*sr, w.sr) {
					t.Fatalf("%s: campaign %x shard %d recovered altered", pass, w.fp, w.sr.Shard)
				}
				if !ok && k >= w.size {
					t.Fatalf("%s: campaign %x shard %d's intact checkpoint lost (cut %d >= %d)", pass, w.fp, w.sr.Shard, k, w.size)
				}
			}
			recovered += len(results)
		}
		return recovered
	}
	// The second pass reopens the log the first closed; the third reads
	// it as another drainer.
	first := check("load", "r")
	if second := check("reload", "r"); second != first {
		t.Fatalf("reload recovered %d shards, first load %d", second, first)
	}
	if third := check("other drainer", "r2"); third != first {
		t.Fatalf("another drainer recovered %d shards, first load %d", third, first)
	}
}
