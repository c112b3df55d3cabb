package xrand

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference
	// implementation (Vigna).
	st := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&st); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestForExperimentIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for idx := uint64(0); idx < 1000; idx++ {
		v := ForExperiment(7, idx).Uint64()
		if seen[v] {
			t.Fatalf("experiment streams collide at idx %d", idx)
		}
		seen[v] = true
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(1)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(11, 100)
		if v < 11 || v > 100 {
			t.Fatalf("IntRange(11,100) = %d out of bounds", v)
		}
	}
	// Degenerate range.
	if v := r.IntRange(5, 5); v != 5 {
		t.Fatalf("IntRange(5,5) = %d, want 5", v)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, iters = 10, 100000
	var counts [n]int
	for i := 0; i < iters; i++ {
		counts[r.Intn(n)]++
	}
	for b, c := range counts {
		// Each bucket expects iters/n = 10000; allow 10% slack.
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d has %d hits, expected ~%d", b, c, iters/n)
		}
	}
}

func TestDistinctBits(t *testing.T) {
	r := New(5)
	tests := []struct {
		k, width  int
		wantCount int
	}{
		{1, 32, 1},
		{3, 32, 3},
		{5, 8, 5},
		{30, 8, 8}, // clamped to width
		{30, 32, 30},
		{64, 64, 64},
		{1, 1, 1},
	}
	for _, tt := range tests {
		mask := r.DistinctBits(tt.k, tt.width)
		if got := bits.OnesCount64(mask); got != tt.wantCount {
			t.Errorf("DistinctBits(%d,%d): %d bits set, want %d",
				tt.k, tt.width, got, tt.wantCount)
		}
		if tt.width < 64 && mask>>uint(tt.width) != 0 {
			t.Errorf("DistinctBits(%d,%d): bits set above width", tt.k, tt.width)
		}
	}
}

func TestDistinctBitsProperty(t *testing.T) {
	r := New(8)
	f := func(kRaw, wRaw uint8) bool {
		width := int(wRaw)%64 + 1
		k := int(kRaw)%70 + 1
		mask := r.DistinctBits(k, width)
		want := k
		if want > width {
			want = width
		}
		if bits.OnesCount64(mask) != want {
			return false
		}
		return width == 64 || mask>>uint(width) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestReseedResets(t *testing.T) {
	r := New(17)
	first := make([]uint64, 8)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(17)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Reseed did not reset stream at %d", i)
		}
	}
}

// TestSeedExperimentMatchesForExperiment checks that reseeding a used
// generator in place yields exactly the stream ForExperiment returns, so
// a worker's reused generator draws what a fresh one would.
func TestSeedExperimentMatchesForExperiment(t *testing.T) {
	r := New(99)
	for _, c := range []struct{ seed, idx uint64 }{{1, 0}, {1, 1}, {7, 123456}, {0, 1 << 40}} {
		r.Uint64()
		r.SeedExperiment(c.seed, c.idx)
		want := ForExperiment(c.seed, c.idx)
		for i := 0; i < 8; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed=%d idx=%d: draw %d = %#x, want %#x", c.seed, c.idx, i, got, w)
			}
		}
	}
}
