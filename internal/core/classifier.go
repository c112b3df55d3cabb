package core

// Outcome classification as a pluggable seam. The paper's §III-E
// categories hinge on one judgement call — when does an output count as
// corrupted? — and the exact byte comparison the register campaigns
// always used is only one answer. Floating-point workloads (Lowery's
// "Relative error due to a single bit-flip in floating-point
// arithmetic", PAPERS.md) need a tolerance: a flip in a low mantissa
// bit perturbs the output by a relative error far below any level an
// application would call corrupt. A Classifier owns that judgement;
// everything structural about classification (traps, hangs, missing
// output) is shared, because no tolerance makes a segfault benign.
//
// Classifier identity folds into the campaign fingerprint
// (Engine.fingerprint): a journaled shard checkpoint is a
// classifier-dependent fact, so campaigns classified differently must
// never share journal files.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"multiflip/internal/vm"
)

// Classifier maps a run result to the paper's outcome categories
// (§III-E) given the target's golden output. Implementations must be
// stateless and safe for concurrent use (every engine worker
// classifies through the one value), and Name must be a stable, full
// parameterization: two classifiers with equal names must classify
// every (golden, result) pair identically, because the name is what
// the campaign fingerprint digests.
type Classifier interface {
	// Name renders the classifier's identity and parameters.
	Name() string
	// Classify maps a run result to its outcome. res, and the slices it
	// holds (Output, InjectionDyns), are valid only during the call: the
	// engine reuses them for the worker's next experiment.
	Classify(golden []byte, res *vm.Result) Outcome
}

// preClassify handles the classifier-independent outcomes:
//
//   - a trap is Detected by Hardware Exception;
//   - exceeding the dynamic-instruction budget is a Hang (the
//     output-limit stop is classified likewise: only a watchdog would
//     catch it);
//   - normal termination with no output is NoOutput.
//
// The remaining judgement — golden-vs-actual output — is the
// classifier's. Convergence-terminated runs (res.Converged) pass
// through unchanged: they report the stop reason and output the full
// run would have, the output they printed followed by the golden
// output's rest, so they classify as the full run would.
func preClassify(res *vm.Result) (Outcome, bool) {
	switch res.Stop {
	case vm.StopTrap:
		return OutcomeException, true
	case vm.StopHang, vm.StopOutputLimit:
		return OutcomeHang, true
	}
	if len(res.Output) == 0 {
		return OutcomeNoOutput, true
	}
	return 0, false
}

// ExactClassifier is the default classifier: output byte-identical to
// golden is Benign, anything else is an SDC. This is the paper's
// comparison and the one every campaign before the classifier seam
// used.
type ExactClassifier struct{}

// Name implements Classifier. "exact" is the default identity and is
// deliberately NOT folded into campaign fingerprints, so journals
// written before the classifier seam existed resume unchanged.
func (ExactClassifier) Name() string { return "exact" }

// Classify implements Classifier.
func (ExactClassifier) Classify(golden []byte, res *vm.Result) Outcome {
	if o, done := preClassify(res); done {
		return o
	}
	if bytes.Equal(res.Output, golden) {
		return OutcomeBenign
	}
	return OutcomeSDC
}

// ToleranceClassifier classifies output word-wise with an absolute and
// a relative epsilon, per the relative-error structure of Lowery's
// floating-point bit-flip analysis: output of the golden length is
// split into Word-byte little-endian words, and a run is Benign when
// every word is within tolerance of its golden counterpart —
// |actual − golden| ≤ Abs, or ≤ Rel·|golden|. Output of a different
// length, or any word out of tolerance, is an SDC.
//
// Byte-identical words are accepted before any decoding, so a
// zero-epsilon ToleranceClassifier is bit-for-bit equivalent to
// ExactClassifier on equal-length outputs (including NaN words in
// Float mode, where a numeric comparison would reject NaN == NaN); the
// classifier-ablation CI job holds it to that.
type ToleranceClassifier struct {
	// Abs is the absolute tolerance per word (in ulps of the integer
	// encoding, or in magnitude for Float mode).
	Abs float64
	// Rel is the relative tolerance per word, as a fraction of the
	// golden word's magnitude.
	Rel float64
	// Word is the word size in bytes: 4 or 8 (0 selects 4). A trailing
	// partial word is compared byte-exact.
	Word int
	// Float decodes words as IEEE-754 (binary32/binary64 per Word)
	// before comparing; otherwise words compare as unsigned integers.
	Float bool
}

// word returns the configured word size with the default applied.
func (c ToleranceClassifier) word() int {
	if c.Word == 8 {
		return 8
	}
	return 4
}

// Name implements Classifier.
func (c ToleranceClassifier) Name() string {
	n := fmt.Sprintf("tol:abs=%g,rel=%g,word=%d", c.Abs, c.Rel, c.word())
	if c.Float {
		n += ",float"
	}
	return n
}

// Classify implements Classifier.
func (c ToleranceClassifier) Classify(golden []byte, res *vm.Result) Outcome {
	if o, done := preClassify(res); done {
		return o
	}
	out := res.Output
	if len(out) != len(golden) {
		return OutcomeSDC
	}
	w := c.word()
	i := 0
	for ; i+w <= len(out); i += w {
		a, g := out[i:i+w], golden[i:i+w]
		if bytes.Equal(a, g) {
			continue
		}
		if !c.within(decode(a), decode(g), w) {
			return OutcomeSDC
		}
	}
	if !bytes.Equal(out[i:], golden[i:]) {
		return OutcomeSDC // trailing partial word: byte-exact
	}
	return OutcomeBenign
}

// decode reads a little-endian word of len(b) ∈ {4, 8} bytes.
func decode(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return uint64(binary.LittleEndian.Uint32(b))
}

// within reports whether actual a tolerably approximates golden g.
func (c ToleranceClassifier) within(a, g uint64, w int) bool {
	var av, gv float64
	if c.Float {
		if w == 8 {
			av, gv = math.Float64frombits(a), math.Float64frombits(g)
		} else {
			av, gv = float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(g)))
		}
		// NaN or infinity where golden was finite (or vice versa; the
		// byte-equal fast path already accepted identical encodings)
		// never tolerates.
		if math.IsNaN(av) || math.IsNaN(gv) || math.IsInf(av, 0) || math.IsInf(gv, 0) {
			return false
		}
	} else {
		av, gv = float64(a), float64(g)
	}
	diff := math.Abs(av - gv)
	return diff <= c.Abs || diff <= c.Rel*math.Abs(gv)
}

// ParseClassifier parses a classifier spec as the fi and study CLIs
// accept it:
//
//	""                          the default (exact)
//	"exact"                     byte-identical output
//	"tol"                       tolerance classifier, all defaults
//	"tol:abs=1,rel=1e-6,word=8,float"
//
// tol options are comma-separated key=value pairs (abs, rel, word)
// plus the bare "float" flag, each optional.
func ParseClassifier(s string) (Classifier, error) {
	switch s {
	case "", "exact":
		return ExactClassifier{}, nil
	}
	rest, ok := strings.CutPrefix(s, "tol")
	if !ok {
		return nil, fmt.Errorf("core: unknown classifier %q (want \"exact\" or \"tol:abs=...,rel=...[,word=4|8][,float]\")", s)
	}
	c := ToleranceClassifier{}
	if rest == "" {
		return c, nil
	}
	rest, ok = strings.CutPrefix(rest, ":")
	if !ok {
		return nil, fmt.Errorf("core: unknown classifier %q", s)
	}
	for _, opt := range strings.Split(rest, ",") {
		key, val, hasVal := strings.Cut(opt, "=")
		switch {
		case key == "float" && !hasVal:
			c.Float = true
		case key == "abs" && hasVal:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("core: classifier abs=%q: want a number >= 0", val)
			}
			c.Abs = f
		case key == "rel" && hasVal:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("core: classifier rel=%q: want a number >= 0", val)
			}
			c.Rel = f
		case key == "word" && hasVal:
			w, err := strconv.Atoi(val)
			if err != nil || (w != 4 && w != 8) {
				return nil, fmt.Errorf("core: classifier word=%q: want 4 or 8", val)
			}
			c.Word = w
		default:
			return nil, fmt.Errorf("core: classifier option %q: want abs=, rel=, word= or float", opt)
		}
	}
	return c, nil
}
