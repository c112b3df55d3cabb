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
		{"fuse", TierFuse},
		{" compile , converge ,", TierCompile | TierConverge},
		{"liveness,snapshots,liveness", TierLiveness | TierSnapshots},
		{"snapshots,fuse,compile,converge,liveness", TierSnapshots | TierFuse | TierCompile | TierConverge | TierLiveness},
	} {
		got, err := parseTiers(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseTiers(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if back, err := parseTiers(got.String()); err != nil || back != got {
			t.Errorf("%q does not round-trip through String: %q, %v", got, back, err)
		}
	}
	for _, bad := range []string{"fusion", "snapshot", "fuse,nocompile", "all"} {
		if _, err := parseTiers(bad); err == nil || !strings.Contains(err.Error(), "valid: snapshots, fuse, compile, converge, liveness") {
			t.Errorf("parseTiers(%q): want an error naming the valid tiers, got %v", bad, err)
		}
	}
	var flag Tiers
	if err := flag.Set("fuse"); err != nil {
		t.Fatal(err)
	}
	if err := flag.Set("compile"); err != nil {
		t.Fatal(err)
	}
	if flag != TierFuse|TierCompile {
		t.Errorf("repeated Set accumulated %q, want fuse,compile", flag)
	}
}
