package core_test

// Classifier-seam tests: the spec parser, the tolerance judgement, the
// zero-epsilon ≡ exact equivalence across all three fault models, and
// the fingerprint contract (default classifier keeps pre-seam content
// addresses; any other classifier changes them).

import (
	"encoding/binary"
	"math"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/tiercontract"
	"multiflip/internal/vm"
)

func TestParseClassifier(t *testing.T) {
	good := []struct{ spec, name string }{
		{"", "exact"},
		{"exact", "exact"},
		{"tol", "tol:abs=0,rel=0,word=4"},
		{"tol:abs=1", "tol:abs=1,rel=0,word=4"},
		{"tol:abs=2,rel=1e-06,word=8,float", "tol:abs=2,rel=1e-06,word=8,float"},
		{"tol:float", "tol:abs=0,rel=0,word=4,float"},
	}
	for _, tc := range good {
		c, err := core.ParseClassifier(tc.spec)
		if err != nil {
			t.Errorf("ParseClassifier(%q): %v", tc.spec, err)
			continue
		}
		if c.Name() != tc.name {
			t.Errorf("ParseClassifier(%q).Name() = %q, want %q", tc.spec, c.Name(), tc.name)
		}
	}
	bad := []string{"bogus", "tolx", "tol:abs", "tol:abs=-1", "tol:word=5", "tol:float=1", "tol:rel=x"}
	for _, spec := range bad {
		if _, err := core.ParseClassifier(spec); err == nil {
			t.Errorf("ParseClassifier(%q) accepted, want error", spec)
		}
	}
}

// words builds a little-endian byte string from 32-bit words.
func words(ws ...uint32) []byte {
	out := make([]byte, 0, 4*len(ws))
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

func TestToleranceClassify(t *testing.T) {
	golden := words(100, 200, 300)
	returned := func(out []byte) *vm.Result { return &vm.Result{Stop: vm.StopReturned, Output: out} }
	tol := core.ToleranceClassifier{Abs: 5}
	cases := []struct {
		name string
		c    core.Classifier
		res  *vm.Result
		want core.Outcome
	}{
		{"equal", tol, returned(words(100, 200, 300)), core.OutcomeBenign},
		{"within-abs", tol, returned(words(103, 196, 300)), core.OutcomeBenign},
		{"outside-abs", tol, returned(words(100, 206, 300)), core.OutcomeSDC},
		{"length-mismatch", tol, returned(words(100, 200)), core.OutcomeSDC},
		{"within-rel", core.ToleranceClassifier{Rel: 0.01}, returned(words(101, 200, 300)), core.OutcomeBenign},
		{"outside-rel", core.ToleranceClassifier{Rel: 0.001}, returned(words(101, 200, 300)), core.OutcomeSDC},
		{"zero-eps-diff", core.ToleranceClassifier{}, returned(words(100, 200, 301)), core.OutcomeSDC},
		{"trap", tol, &vm.Result{Stop: vm.StopTrap, Trap: vm.TrapSegfault}, core.OutcomeException},
		{"hang", tol, &vm.Result{Stop: vm.StopHang}, core.OutcomeHang},
		{"no-output", tol, &vm.Result{Stop: vm.StopReturned}, core.OutcomeNoOutput},
	}
	for _, tc := range cases {
		if got := tc.c.Classify(golden, tc.res); got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
	}

	// Trailing partial word: byte-exact regardless of epsilon.
	g := append(words(100), 7, 8, 9)
	if got := tol.Classify(g, returned(append(words(100), 7, 8, 9))); got != core.OutcomeBenign {
		t.Errorf("partial word equal: %s, want Benign", got)
	}
	if got := tol.Classify(g, returned(append(words(100), 7, 8, 10))); got != core.OutcomeSDC {
		t.Errorf("partial word off by one: %s, want SDC (byte-exact tail)", got)
	}

	// Float mode: a low-mantissa perturbation passes a relative
	// tolerance; NaN where golden was finite never does, but a
	// byte-identical NaN is Benign via the equality fast path.
	f := func(v float32) []byte { return words(math.Float32bits(v)) }
	fc := core.ToleranceClassifier{Rel: 1e-5, Float: true}
	if got := fc.Classify(f(1.0), returned(f(1.0000001))); got != core.OutcomeBenign {
		t.Errorf("float within rel: %s, want Benign", got)
	}
	if got := fc.Classify(f(1.0), returned(f(float32(math.NaN())))); got != core.OutcomeSDC {
		t.Errorf("float NaN vs finite: %s, want SDC", got)
	}
	nan := f(float32(math.NaN()))
	if got := fc.Classify(nan, returned(nan)); got != core.OutcomeBenign {
		t.Errorf("identical NaN bytes: %s, want Benign", got)
	}
}

// TestZeroToleranceMatchesExact is the classifier ablation in test
// form: with both epsilons zero the tolerance classifier must produce
// bit-identical campaigns to the exact default, for every fault model.
func TestZeroToleranceMatchesExact(t *testing.T) {
	tg := target(t, "CRC32")
	const n, seed = 80, 5
	zero := core.ToleranceClassifier{}

	for _, m := range []struct {
		name  string
		model core.FaultModel
	}{
		{"register", &core.RegisterModel{Spec: &core.CampaignSpec{
			Technique: core.InjectOnRead,
			Config:    core.Config{MaxMBF: 3, Win: core.Win(10)},
		}}},
		{"stuckat", &core.StuckAtModel{Spec: &core.StuckAtSpec{}}},
		{"memfault", &memfault.Model{Bits: 2}},
	} {
		t.Run(m.name, func(t *testing.T) {
			run := func(c core.Classifier) *core.EngineResult {
				res, err := (&core.Engine{Target: tg, Model: m.model, N: n, Seed: seed, Record: true, Classifier: c}).Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want, got := run(nil), run(zero)
			if want.Tally != got.Tally {
				t.Errorf("%s eps-0: tallies differ: %+v vs %+v", m.name, want.Tally, got.Tally)
			}
			tiercontract.SameResult(t, m.name+" eps-0", want, got, true)
		})
	}
}

// TestClassifierFingerprint pins the content-address contract: the
// default classifier (nil or explicit exact) must keep the fingerprints
// campaigns had before the classifier seam existed — old journals
// resume unchanged — while any non-default classifier must move to its
// own addresses so differently-classified results never mix.
func TestClassifierFingerprint(t *testing.T) {
	tg := target(t, "CRC32")
	eng := func(c core.Classifier) *core.Engine {
		return &core.Engine{
			Target: tg,
			Model: &core.RegisterModel{Spec: &core.CampaignSpec{
				Technique: core.InjectOnRead, Config: core.SingleBit(),
			}},
			N: 10, Seed: 1, Classifier: c,
		}
	}
	defFP := core.EngineFingerprint(eng(nil))
	if fp := core.EngineFingerprint(eng(core.ExactClassifier{})); fp != defFP {
		t.Errorf("explicit exact classifier changed the campaign fingerprint: %x vs %x", fp, defFP)
	}
	tolFP := core.EngineFingerprint(eng(core.ToleranceClassifier{Abs: 1}))
	if tolFP == defFP {
		t.Error("tolerance classifier shares the default campaign fingerprint")
	}
	if core.EngineFingerprint(eng(core.ToleranceClassifier{Abs: 2})) == tolFP {
		t.Error("differently-parameterized tolerance classifiers share a fingerprint")
	}
}
