package vm

import (
	"strings"
	"testing"
)

func TestParseTiers(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Tiers
	}{
		{"", 0},
		{"snapshots", TierSnapshots},
		{" compile , converge ,", TierCompile | TierConverge},
		{"converge,snapshots,converge", TierConverge | TierSnapshots},
		{"snapshots,compile,converge", TierSnapshots | TierCompile | TierConverge},
	} {
		got, err := parseTiers(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseTiers(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if back, err := parseTiers(got.String()); err != nil || back != got {
			t.Errorf("%q does not round-trip through String: %q, %v", got, back, err)
		}
	}
	// "fuse" and "liveness" name retired tiers (superinstruction fusion,
	// static liveness pruning): they are as unknown as a typo.
	for _, bad := range []string{"fuse", "liveness", "snapshot", "compile,fuse", "converge,liveness", "nocompile", "all"} {
		if _, err := parseTiers(bad); err == nil || !strings.HasSuffix(err.Error(), "(valid: snapshots, compile, converge)") {
			t.Errorf("parseTiers(%q): want an error naming the valid tiers, got %v", bad, err)
		}
	}
	var flag Tiers
	if err := flag.Set("snapshots"); err != nil {
		t.Fatal(err)
	}
	if err := flag.Set("compile"); err != nil {
		t.Fatal(err)
	}
	if flag != TierSnapshots|TierCompile {
		t.Errorf("repeated Set accumulated %q, want snapshots,compile", flag)
	}
}
