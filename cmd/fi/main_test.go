package main

import (
	"strings"
	"testing"

	"multiflip/internal/vm"
)

// base returns a valid option set for tests to break one field at a time.
func base() options {
	return options{prog: "CRC32", model: "flip", tech: "read", mbf: 1,
		winSpec: "0", n: 10, seed: 1, hang: 10, workers: 1}
}

func TestRunRejectsUnknowns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"unknown program", func(o *options) { o.prog = "no-such-prog" }},
		{"unknown technique", func(o *options) { o.tech = "sideways" }},
		{"unknown model", func(o *options) { o.model = "no-such-model" }},
		{"stuck-at zero window", func(o *options) { o.model = "stuckat" }},
		{"resume without journal", func(o *options) { o.resume = true }},
		{"status without journal", func(o *options) { o.status = true }},
	}
	for _, c := range cases {
		o := base()
		c.mut(&o)
		if err := run(o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestDisableFlag checks the -disable flag: it names tiers the way
// MULTIFLIP_DISABLE and study.Options.Disable do, rejects unknown names
// with the valid list, and "snapshots" yields a target that keeps no
// snapshots but still records the golden trace convergence needs.
func TestDisableFlag(t *testing.T) {
	o := base()
	if err := o.disable.Set("snapshots"); err != nil {
		t.Fatal(err)
	}
	tg, err := o.target()
	if err != nil {
		t.Fatal(err)
	}
	if tg.Disable != vm.TierSnapshots {
		t.Errorf("target disables %q, want snapshots", tg.Disable)
	}
	if len(tg.Snapshots) != 0 {
		t.Errorf("-disable snapshots kept %d snapshots", len(tg.Snapshots))
	}
	if tg.Trace == nil && !vm.EnvDisabled().Has(vm.TierConverge) {
		t.Error("-disable snapshots lost the golden trace")
	}
	if err := o.disable.Set("snapshot"); err == nil || !strings.Contains(err.Error(), "snapshots, fuse, compile, converge, liveness") {
		t.Errorf("-disable snapshot: want an error naming the valid tiers, got %v", err)
	}
}
