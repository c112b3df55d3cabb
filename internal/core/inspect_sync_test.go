package core_test

// Satellite coverage for the durability surface: the fsync opt-in mode
// must run and resume campaigns bit-identically to the default mode (it
// only changes when data hits the platter, not what is written), and
// InspectDir — the engine behind `fi -status` — must fail on a missing
// directory, list nothing in empty and memo-only ones (and write nothing
// there), list each campaign of a directory log, and name every campaign
// file or log it cannot list, never panic or skip it silently.

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/tiercontract"
)

func TestSyncModeCampaign(t *testing.T) {
	tg := target(t, "CRC32")
	const n = 24
	eng := func(svc *core.Service) *core.Engine {
		return &core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead,
				Config:    core.SingleBit(),
			}},
			N:       n,
			Seed:    61,
			Record:  true,
			Service: svc,
		}
	}
	baseline, err := eng(nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc := &core.Service{Dir: dir, Sync: true, ShardSize: 8}
	synced, err := eng(svc).Run()
	if err != nil {
		t.Fatal(err)
	}
	tiercontract.SameResult(t, "synced campaign vs in-memory", baseline, synced, true)

	// Resume folds the completed journal instead of re-running.
	svc.Resume = true
	resumed, err := eng(svc).Run()
	if err != nil {
		t.Fatal(err)
	}
	tiercontract.SameResult(t, "resumed synced campaign", baseline, resumed, true)

	infos, err := core.InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("InspectDir found %d campaigns, want 1", len(infos))
	}
	if infos[0].Meta.N != n {
		t.Fatalf("inspected campaign has N=%d, want %d", infos[0].Meta.N, n)
	}
	if st := infos[0].Status; st.Done != st.Shards || st.ExperimentsDone != st.ExperimentsTotal {
		t.Fatalf("completed campaign reports %d/%d shards, %d/%d experiments done",
			st.Done, st.Shards, st.ExperimentsDone, st.ExperimentsTotal)
	}
}

func TestInspectDirEdgeCases(t *testing.T) {
	t.Run("nonexistent", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "never-created")
		if infos, err := core.InspectDir(dir); err == nil || !strings.Contains(err.Error(), dir) {
			t.Fatalf("nonexistent dir: got %d campaigns and error %v, want an error naming it", len(infos), err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		dir := t.TempDir()
		infos, err := core.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("empty dir reports %d campaigns", len(infos))
		}
		// Listing writes nothing: no log appears.
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("listing left %d entries in the directory (%v)", len(entries), err)
		}
	})
	t.Run("log", func(t *testing.T) {
		// Each campaign of the directory log is an entry of its own, in
		// fingerprint order, and one whose meta record was lost is named
		// with the reason.
		dir := t.TempDir()
		for _, seed := range []uint64{3, 4} {
			eng := registerEngine(target(t, "CRC32"))
			eng.N, eng.Seed = 8, seed
			eng.Service = &core.Service{Dir: dir, ShardSize: 4}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		log := filepath.Join(dir, "journal.mfj")
		body := `0000000000000001 {"t":"done","s":0}`
		f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		infos, err := core.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 3 {
			t.Fatalf("InspectDir listed %d entries, want 3: %+v", len(infos), infos)
		}
		if in := infos[0]; in.Path != log || in.Err == nil ||
			!strings.Contains(in.Err.Error(), log) || !strings.Contains(in.Err.Error(), "campaign 0000000000000001 holds no campaign meta record") {
			t.Errorf("metaless campaign listed as %+v, want an error naming the log and the campaign", in)
		}
		for i, in := range infos[1:] {
			if in.Path != log || in.Err != nil || in.Status.ExperimentsDone != 8 {
				t.Errorf("campaign %d: %+v, want a finished campaign of the log", i, in)
			}
		}
		if infos[1].Meta.Fingerprint >= infos[2].Meta.Fingerprint {
			t.Errorf("campaigns not in fingerprint order: %016x, %016x", infos[1].Meta.Fingerprint, infos[2].Meta.Fingerprint)
		}
	})
	t.Run("unreadable log", func(t *testing.T) {
		dir := t.TempDir()
		log := filepath.Join(dir, "journal.mfj")
		if err := os.Mkdir(log, 0o755); err != nil {
			t.Fatal(err)
		}
		infos, err := core.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Path != log || infos[0].Err == nil ||
			!strings.Contains(infos[0].Err.Error(), log) || !strings.Contains(infos[0].Err.Error(), "is a directory") {
			t.Fatalf("InspectDir listed %+v, want one entry naming the log and why it cannot be read", infos)
		}
	})
	t.Run("memo-only", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "memo-00000000deadbeef.mfj"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		infos, err := core.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("memo-only dir reports %d campaigns", len(infos))
		}
	})
	t.Run("torn", func(t *testing.T) {
		// Campaign files that are garbage — e.g. a crash before the meta
		// line was durable, then further corruption — a zero-length one
		// another process has just created, and a stray directory under
		// the name pattern are each listed with the reason, not inspected
		// into a panic, and the scan goes on to the directory log's
		// campaign.
		dir := t.TempDir()
		for name, data := range map[string]string{
			"campaign-0000000000000bad.mfj": "not a journal\x00\xff{",
			"campaign-000000000000bad2.mfj": "garbage\n",
			"campaign-0000000000000new.mfj": "",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(filepath.Join(dir, "campaign-00000000000000d1.mfj"), 0o755); err != nil {
			t.Fatal(err)
		}
		eng := registerEngine(target(t, "CRC32"))
		eng.N, eng.Seed = 8, 3
		eng.Service = &core.Service{Dir: dir, ShardSize: 4}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		good := "journal.mfj"

		infos, err := core.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{
			"campaign-00000000000000d1.mfj": "is a directory",
			"campaign-0000000000000bad.mfj": "holds no campaign meta record",
			"campaign-000000000000bad2.mfj": "holds no campaign meta record",
			"campaign-0000000000000new.mfj": "no records yet",
			good:                            "",
		}
		if len(infos) != len(want) {
			t.Fatalf("InspectDir listed %d entries, want %d: %+v", len(infos), len(want), infos)
		}
		for i, in := range infos {
			name := filepath.Base(in.Path)
			if i > 0 && filepath.Base(infos[i-1].Path) >= name {
				t.Errorf("entries not sorted by path: %s after %s", name, filepath.Base(infos[i-1].Path))
			}
			reason, ok := want[name]
			switch {
			case !ok:
				t.Errorf("unexpected entry %s", name)
			case reason == "":
				if in.Err != nil || in.Status.ExperimentsDone != 8 {
					t.Errorf("%s: err %v, %d experiments done; want the finished campaign", name, in.Err, in.Status.ExperimentsDone)
				}
			case in.Err == nil || !strings.Contains(in.Err.Error(), reason) || !strings.Contains(in.Err.Error(), in.Path):
				t.Errorf("%s: err %v, want one naming the file and %q", name, in.Err, reason)
			}
		}
	})
}
