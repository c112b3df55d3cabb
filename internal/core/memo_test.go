package core_test

// The shared memo file: its loader under crash debris, and two Services
// on one journal directory — the in-process stand-in for two
// `study -resume` processes sharing a directory.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

// memoFact is synthetic memo record i: a distinct state and a valid
// outcome (with a trap kind for exceptions).
func memoFact(i int) (vm.StateKey, core.Outcome, vm.TrapKind) {
	k := vm.StateKey{Dyn: uint64(i + 1), Mem: uint64(i) * 0x9e3779b97f4a7c15, Regs: uint64(i * 7), Out: uint64(i % 3), OutLen: uint64(i % 5)}
	o := core.Outcome(1 + i%core.NumOutcomes)
	var trap vm.TrapKind
	if o == core.OutcomeException {
		trap = vm.TrapKind(1 + i%(core.NumTrapKinds-1))
	}
	return k, o, trap
}

// FuzzMemoLoader fuzzes the shared-memo loader against crash debris: a
// memo file cut at an arbitrary byte with arbitrary bytes appended. It
// loads the result in one OpenSharedMemo, and again in two reads split
// at an arbitrary offset, the second after the rest of the bytes land
// (a Service absorbing a peer's appends). Neither may error or panic;
// both must recover every record wholly before the cut, unaltered, and
// must agree with each other.
func FuzzMemoLoader(f *testing.F) {
	f.Add(byte(0), uint16(0), uint16(0), []byte(nil))
	f.Add(byte(12), uint16(500), uint16(100), []byte(nil))
	f.Add(byte(40), uint16(65535), uint16(3000), []byte("tail"))
	f.Add(byte(7), uint16(300), uint16(65535), []byte("00000000 {\"k\":{}}\n"))
	f.Add(byte(3), uint16(9), uint16(5), []byte("\n\n\x00\xff garbage \n"))
	f.Fuzz(func(t *testing.T, nRecs byte, cut, split uint16, garbage []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "memo-fuzz.mfj")
		m, err := core.OpenSharedMemo(path)
		if err != nil {
			t.Fatal(err)
		}
		n := int(nRecs) % 64
		// sizeAfter[i] is the file size once record i is flushed: the
		// record survives any cut at or past it.
		sizeAfter := make([]int64, n)
		for i := 0; i < n; i++ {
			k, o, trap := memoFact(i)
			core.MemoStore(m, k, o, trap)
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			sizeAfter[i] = fi.Size()
		}
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}

		// Mutate: truncate at an arbitrary byte, append arbitrary bytes.
		c := int(cut) % (len(data) + 1)
		mutated := append(data[:c:c], garbage...)
		onePath := filepath.Join(dir, "memo-one.mfj")
		if err := os.WriteFile(onePath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		one, err := core.OpenSharedMemo(onePath)
		if err != nil {
			t.Fatalf("one load errored: %v", err)
		}
		s := int(split) % (len(mutated) + 1)
		twoPath := filepath.Join(dir, "memo-two.mfj")
		if err := os.WriteFile(twoPath, mutated[:s], 0o644); err != nil {
			t.Fatal(err)
		}
		two, err := core.OpenSharedMemo(twoPath)
		if err != nil {
			t.Fatalf("first of two loads errored: %v", err)
		}
		fw, err := os.OpenFile(twoPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(mutated[s:]); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := core.MemoAbsorb(two); err != nil {
			t.Fatalf("second of two loads errored: %v", err)
		}

		intact := 0
		for i := 0; i < n; i++ {
			if int64(c) >= sizeAfter[i] {
				intact++
			}
		}
		for _, load := range []struct {
			name string
			m    *core.SharedMemo
		}{{"one load", one}, {"two loads", two}} {
			for i := 0; i < n; i++ {
				k, wantO, wantTrap := memoFact(i)
				o, trap, ok := core.MemoLookup(load.m, k)
				switch {
				case int64(c) >= sizeAfter[i] && !ok:
					t.Fatalf("%s: record %d lost (cut %d >= %d)", load.name, i, c, sizeAfter[i])
				case int64(c) >= sizeAfter[i] && (o != wantO || trap != wantTrap):
					t.Fatalf("%s: record %d altered: %v/%v, want %v/%v", load.name, i, o, trap, wantO, wantTrap)
				}
			}
			// Without appended bytes there is nothing to recover beyond
			// the intact records. (Fuzz-crafted bytes could frame a valid
			// new record; that is input, not corruption.)
			if got := core.MemoLen(load.m); len(garbage) == 0 && got != intact {
				t.Fatalf("%s: %d entries from %d intact records", load.name, got, intact)
			}
		}
		if a, b := core.MemoLen(one), core.MemoLen(two); a != b {
			t.Fatalf("one load holds %d entries, two loads %d", a, b)
		}
		for i := 0; i < n; i++ {
			k, _, _ := memoFact(i)
			o1, t1, ok1 := core.MemoLookup(one, k)
			o2, t2, ok2 := core.MemoLookup(two, k)
			if o1 != o2 || t1 != t2 || ok1 != ok2 {
				t.Fatalf("record %d: one load %v/%v/%v, two loads %v/%v/%v", i, o1, t1, ok1, o2, t2, ok2)
			}
		}
	})
}

// sdcPins probes CRC32 inject-on-write single-bit locations and returns
// one that ends in SDC — its post-injection state diverges from golden,
// so the memo rather than convergence resolves a repeat — and one at
// another candidate.
func sdcPins(t *testing.T, tg *core.Target) (sdc, other core.Pin) {
	t.Helper()
	probe, err := (&core.Engine{
		Target: tg,
		Model: &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnWrite,
			Config:    core.SingleBit(),
		}},
		N:      60,
		Seed:   7,
		Record: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range probe.Experiments {
		if e.Outcome == core.OutcomeSDC {
			sdc, found = core.Pin{Cand: e.Cand, Bit: e.Bit}, true
			break
		}
	}
	if !found {
		t.Skip("no SDC experiment in the probe campaign")
	}
	for _, e := range probe.Experiments {
		if e.Cand != sdc.Cand {
			return sdc, core.Pin{Cand: e.Cand, Bit: e.Bit}
		}
	}
	t.Skip("the probe campaign hit one candidate only")
	return
}

// TestServiceMemoSeesPeerAppends checks a Service's kept memo reads what
// a peer appended. Service A opens and keeps the memo; Service B, on the
// same directory, then executes an SDC location and appends its fact;
// A's next campaign at that location must resolve it from the memo.
func TestServiceMemoSeesPeerAppends(t *testing.T) {
	if !tierOn(vm.TierConverge) {
		t.Skip("the shared memo needs the golden trace")
	}
	tg := target(t, "CRC32")
	pin, other := sdcPins(t, tg)
	dir := t.TempDir()
	a := &core.Service{Dir: dir}
	b := &core.Service{Dir: dir}
	run := func(svc *core.Service, seed uint64, p core.Pin) *core.EngineResult {
		t.Helper()
		res, err := (&core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite,
				Config:    core.SingleBit(),
				Pins:      []core.Pin{p},
			}},
			N:       1,
			Seed:    seed,
			Workers: 1,
			Service: svc,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(a, 1, other)
	if res := run(b, 2, pin); res.MemoHits != 0 {
		t.Fatalf("B resolved the SDC location from the memo before anyone ran it (%d hits)", res.MemoHits)
	}
	if res := run(a, 3, pin); res.MemoHits != 1 {
		t.Errorf("A's campaign at the location B ran reported %d memo hits, want 1", res.MemoHits)
	}
}

// TestServicesDrainConcurrently has two resuming Services drain the same
// three campaigns on one directory at once, each Service running its
// three concurrently on the one memo it keeps of the shared file. Every
// result must match the in-memory run; only the scheduling-dependent
// early-exit split may move.
func TestServicesDrainConcurrently(t *testing.T) {
	tg := target(t, "CRC32")
	const n = 48
	engines := []func() *core.Engine{
		func() *core.Engine { return registerEngine(tg) },
		func() *core.Engine {
			return &core.Engine{Target: tg, Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnWrite, Config: core.SingleBit(),
			}}}
		},
		func() *core.Engine {
			return &core.Engine{Target: tg, Model: &core.StuckAtModel{Spec: &core.StuckAtSpec{
				Window: core.Win(core.DefaultStuckWindow),
			}}}
		},
	}
	engine := func(i int, svc *core.Service) *core.Engine {
		e := engines[i]()
		e.N = n
		e.Seed = uint64(20 + i)
		e.Record = true
		e.Workers = 2
		e.Service = svc
		return e
	}
	want := make([]*core.EngineResult, len(engines))
	for i := range engines {
		res, err := engine(i, nil).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	got := [2][3]*core.EngineResult{}
	errs := [2][3]error{}
	for d, worker := range []string{"drainer-a", "drainer-b"} {
		svc := &core.Service{Dir: dir, Resume: true, WorkerID: worker, ShardSize: 4}
		for i := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[d][i], errs[d][i] = engine(i, svc).Run()
			}()
		}
	}
	wg.Wait()
	for d := range got {
		for i, res := range got[d] {
			if errs[d][i] != nil {
				t.Fatalf("drainer %d campaign %d: %v", d, i, errs[d][i])
			}
			tiercontract.SameResult(t, fmt.Sprintf("drainer %d campaign %d", d, i), want[i], res, false)
		}
	}
}
