package core_test

// Fuzzing the file-journal loader against crash debris: a journal
// truncated at an arbitrary byte (a torn final write) with arbitrary
// bytes appended (a partial record from a dying writer, or plain
// corruption). The loader's contract under any such mutation: never
// error, never panic, recover every checkpoint whose record survived
// intact, and never invent or alter one.

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
	lo, hi := meta.Span(shard)
	sr := core.ShardResult{Shard: shard}
	for i := lo; i < hi; i++ {
		exp := core.Experiment{
			Cand:      uint64(i * 7),
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
		k := int(cut) % (len(data) + 1)
		mutated := append(data[:k:k], garbage...)
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
	})
}
