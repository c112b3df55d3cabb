package core_test

// Satellite coverage for the durability surface: the fsync opt-in mode
// must run and resume campaigns bit-identically to the default mode (it
// only changes when data hits the platter, not what is written), and
// InspectDir — the engine behind `fi -status` — must treat missing,
// empty, memo-only and torn journal directories as "no campaigns", never
// as errors or panics.

import (
	"os"
	"path/filepath"
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
		infos, err := core.InspectDir(filepath.Join(t.TempDir(), "never-created"))
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("nonexistent dir reports %d campaigns", len(infos))
		}
	})
	t.Run("empty", func(t *testing.T) {
		infos, err := core.InspectDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("empty dir reports %d campaigns", len(infos))
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
		// A campaign file that is pure garbage — e.g. a crash before the
		// meta line was durable, then further corruption — must be skipped,
		// not inspected into a panic or an error.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "campaign-0000000000000bad.mfj"),
			[]byte("not a journal\x00\xff{"), 0o644); err != nil {
			t.Fatal(err)
		}
		infos, err := core.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("torn-journal dir reports %d campaigns", len(infos))
		}
	})
}
