package core

import (
	"encoding/json"
	"fmt"
	"math"

	"multiflip/internal/stats"
)

// FlipDir is the direction of a single-bit corruption: whether the
// injection cleared a set bit (1→0) or set a clear one (0→1). The
// Snippet-1 style breakdowns — and asymmetric protection schemes such
// as precharged latches — care about the two directions separately.
type FlipDir uint8

// Flip directions. DirUnknown covers experiments whose first injection
// has no single direction: multi-bit same-register flips, multi-bit
// memory masks, and stuck-at holds that never changed a value.
const (
	DirUnknown FlipDir = iota
	Dir0to1
	Dir1to0
	// NumFlipDirs sizes direction-indexed tables.
	NumFlipDirs
)

// String renders the direction as the study tables print it.
func (d FlipDir) String() string {
	switch d {
	case Dir0to1:
		return "0->1"
	case Dir1to0:
		return "1->0"
	}
	return "unknown"
}

// DirFromPre converts a pre-flip bit value (vm.Result.FirstPre: -1
// unknown, else 0 or 1) into a flip direction.
func DirFromPre(pre int) FlipDir {
	switch pre {
	case 0:
		return Dir0to1
	case 1:
		return Dir1to0
	}
	return DirUnknown
}

// Bit-position buckets: one per bit index of a 64-bit register or
// memory word, plus UnknownBit for experiments whose first injection
// has no single bit position.
const (
	// UnknownBit is the bucket for experiments with no single first-flip
	// bit (Experiment.Bit < 0).
	UnknownBit = 64
	// NumBitBuckets sizes bit-position-indexed tables.
	NumBitBuckets = 65
)

// bitBucket maps an Experiment.Bit value to its tally bucket.
func bitBucket(bit int) int {
	if bit < 0 || bit >= UnknownBit {
		return UnknownBit
	}
	return bit
}

// Tally accumulates per-outcome experiment counts and derives the
// percentage and confidence-interval statistics every campaign type
// reports. EngineResult embeds it, and every campaign result type
// embeds EngineResult, so the §III-E outcome math lives in one place.
//
// Counts is the flat per-outcome total — the paper's Table I numbers —
// and stays authoritative: journal validation and every percentage
// derive from it. Dims carries the same experiments broken down by
// (outcome × bit position × flip direction); for freshly tallied data
// each outcome's Counts entry equals the sum of its Dims cells, while
// shard checkpoints written before the dimensional tally existed load
// with zero Dims (the flat totals survive, the breakdown covers only
// data recorded since).
type Tally struct {
	// Counts indexes experiment totals by Outcome.
	Counts [NumOutcomes + 1]int
	// Dims breaks the same totals down by bit position and flip
	// direction.
	Dims DimTally `json:"dims"`
}

// Add records one experiment outcome with no dimensional information
// (bit position and direction unknown).
func (t *Tally) Add(o Outcome) { t.AddDim(o, -1, DirUnknown) }

// AddDim records one experiment outcome together with its first-flip
// bit position (negative = unknown) and flip direction.
func (t *Tally) AddDim(o Outcome, bit int, dir FlipDir) {
	t.Counts[o]++
	t.Dims.add(o, bit, dir)
}

// Merge folds another tally into t. Merging is associative and
// commutative (each bucket is a sum), which is what lets campaign shards
// aggregate incrementally and in any order (see ShardResult).
func (t *Tally) Merge(o *Tally) {
	for i, c := range o.Counts {
		t.Counts[i] += c
	}
	t.Dims.merge(&o.Dims)
}

// N returns the number of experiments tallied.
func (t *Tally) N() int {
	n := 0
	for _, c := range t.Counts {
		n += c
	}
	return n
}

// Count returns the number of experiments in category o.
func (t *Tally) Count(o Outcome) int { return t.Counts[o] }

// Pct returns the percentage of experiments in category o.
func (t *Tally) Pct(o Outcome) float64 { return stats.Percent(t.Counts[o], t.N()) }

// SDCPct returns the silent-data-corruption percentage.
func (t *Tally) SDCPct() float64 { return t.Pct(OutcomeSDC) }

// DetectionPct returns the paper's aggregate Detection percentage
// (HWException + Hang + NoOutput).
func (t *Tally) DetectionPct() float64 {
	return t.Pct(OutcomeException) + t.Pct(OutcomeHang) + t.Pct(OutcomeNoOutput)
}

// Resilience returns the error-resilience estimate: the probability that
// an activated error does not produce an SDC (§II-B).
func (t *Tally) Resilience() float64 { return 1 - t.SDCPct()/100 }

// CI95 returns the half-width of the 95% confidence interval, in
// percentage points, of category o's percentage (normal approximation of
// the binomial, as the paper's error bars).
func (t *Tally) CI95(o Outcome) float64 { return stats.NormalCI95(t.Counts[o], t.N()) }

// DimTally is the dimensional half of a Tally: experiment counts by
// (outcome × bit position × flip direction). The array is dense in
// memory but sparse on the wire — MarshalJSON emits only non-zero cells
// — and the zero value is ready to use, which is what keeps old-format
// journal records (no "dims" key) loading cleanly. Its cells are 32-bit:
// a campaign runs at most math.MaxInt32 experiments (Engine.Run rejects
// more), and every shard result, checkpoint and campaign result carries
// a copy of the array.
type DimTally struct {
	counts [NumOutcomes + 1][NumBitBuckets][NumFlipDirs]int32
}

// add records one experiment in its (outcome, bit, direction) cell.
func (d *DimTally) add(o Outcome, bit int, dir FlipDir) {
	if dir >= NumFlipDirs {
		dir = DirUnknown
	}
	d.counts[o][bitBucket(bit)][dir]++
}

// Merge folds another dimensional tally into d (associative and
// commutative: every cell is a sum). Renderers use it to aggregate
// breakdowns across campaigns without touching the flat totals.
func (d *DimTally) Merge(o *DimTally) { d.merge(o) }

// merge folds another dimensional tally into d (associative and
// commutative: every cell is a sum).
func (d *DimTally) merge(o *DimTally) {
	for i := range o.counts {
		for b := range o.counts[i] {
			for k, c := range o.counts[i][b] {
				if c != 0 {
					d.counts[i][b][k] += c
				}
			}
		}
	}
}

// Count returns the number of experiments in the (o, bit, dir) cell;
// bit < 0 addresses the unknown-position bucket.
func (d *DimTally) Count(o Outcome, bit int, dir FlipDir) int {
	if dir >= NumFlipDirs {
		dir = DirUnknown
	}
	return int(d.counts[o][bitBucket(bit)][dir])
}

// BitCount returns the number of category-o experiments whose first
// flip landed on bit, summed over directions.
func (d *DimTally) BitCount(o Outcome, bit int) int {
	n := 0
	for _, c := range d.counts[o][bitBucket(bit)] {
		n += int(c)
	}
	return n
}

// DirCount returns the number of category-o experiments with flip
// direction dir, summed over bit positions.
func (d *DimTally) DirCount(o Outcome, dir FlipDir) int {
	if dir >= NumFlipDirs {
		dir = DirUnknown
	}
	n := 0
	for b := range d.counts[o] {
		n += int(d.counts[o][b][dir])
	}
	return n
}

// BitTotal returns the number of experiments (all outcomes) whose first
// flip landed on bit.
func (d *DimTally) BitTotal(bit int) int {
	n := 0
	for o := range d.counts {
		n += d.BitCount(Outcome(o), bit)
	}
	return n
}

// DirTotal returns the number of experiments (all outcomes) with flip
// direction dir.
func (d *DimTally) DirTotal(dir FlipDir) int {
	n := 0
	for o := range d.counts {
		n += d.DirCount(Outcome(o), dir)
	}
	return n
}

// N returns the number of experiments with dimensional information
// (zero for tallies loaded from pre-dimensional journal checkpoints).
func (d *DimTally) N() int {
	n := 0
	for o := range d.counts {
		for b := range d.counts[o] {
			for _, c := range d.counts[o][b] {
				n += int(c)
			}
		}
	}
	return n
}

// dimCell is one non-zero cell on the wire: [outcome, bit bucket,
// direction, count].
type dimCell [4]int

// MarshalJSON emits the non-zero cells as a sparse [[o,b,d,n], ...]
// list; the dense array would bloat every shard checkpoint with ~1200
// zeros.
func (d DimTally) MarshalJSON() ([]byte, error) {
	cells := make([]dimCell, 0, 16)
	for o := range d.counts {
		for b := range d.counts[o] {
			for k, c := range d.counts[o][b] {
				if c != 0 {
					cells = append(cells, dimCell{o, b, k, int(c)})
				}
			}
		}
	}
	return json.Marshal(cells)
}

// UnmarshalJSON loads a sparse cell list, dropping out-of-range or
// negative cells, and counts a cell cannot hold, like the journal loader
// drops malformed records: a foreign or corrupt breakdown must never
// panic or poison the flat totals the campaign validates against.
func (d *DimTally) UnmarshalJSON(b []byte) error {
	var cells []dimCell
	if err := json.Unmarshal(b, &cells); err != nil {
		return fmt.Errorf("core: dimensional tally: %w", err)
	}
	*d = DimTally{}
	for _, c := range cells {
		o, bit, dir, n := c[0], c[1], c[2], c[3]
		if o < 0 || o > NumOutcomes || bit < 0 || bit >= NumBitBuckets ||
			dir < 0 || dir >= int(NumFlipDirs) || n < 0 ||
			n > math.MaxInt32-int(d.counts[o][bit][dir]) {
			continue
		}
		d.counts[o][bit][dir] += int32(n)
	}
	return nil
}
