package core

// Lease-clock semantics (internal test: the seams are the unexported
// journalState and its clock). The TTL contract — documented on
// DefaultLeaseTTL — distinguishes two kinds of lease expiry:
//
//   - stamped by this process: a time.Time carrying Go's monotonic clock,
//     immune to wall-clock steps, compared exactly;
//   - read from a journal record: a wall-clock UnixMilli written by
//     some other process, compared with a configurable skew grace.
//
// These tests pin the boundary conditions of both, plus the own-echo
// suppression that keeps re-reading our own appended lease records from
// downgrading a monotonic expiry to a wall-clock one.

import (
	"testing"
	"time"
)

func leaseState(t *testing.T, grace time.Duration) *journalState {
	t.Helper()
	st := &journalState{now: time.Now, grace: grace}
	if err := st.init(CampaignMeta{Model: "t", N: 8, ShardSize: 4}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLeaseLocalExpiresExactly(t *testing.T) {
	st := leaseState(t, 0)
	t0 := time.Now()
	exp := t0.Add(100 * time.Millisecond)
	st.applyLease(0, "w1", exp, true)
	sh := &st.shards[0]
	if !st.leaseLive(sh, t0) {
		t.Fatal("fresh local lease not live")
	}
	if !st.leaseLive(sh, exp.Add(-time.Millisecond)) {
		t.Fatal("local lease dead before its expiry")
	}
	// Local leases get no grace, even with the default margin in force:
	// at and after exp the shard is stealable.
	if st.leaseLive(sh, exp) {
		t.Fatal("local lease live at its exact expiry")
	}
	if st.leaseLive(sh, exp.Add(DefaultLeaseGrace/2)) {
		t.Fatal("local lease granted the peer-lease grace")
	}
}

func TestLeaseAbsorbedGetsGrace(t *testing.T) {
	t0 := time.Now()
	exp := t0.Add(100 * time.Millisecond)
	for _, tt := range []struct {
		name  string
		grace time.Duration
		want  time.Duration // effective margin past exp
	}{
		{"default", 0, DefaultLeaseGrace},
		{"custom", 500 * time.Millisecond, 500 * time.Millisecond},
		{"disabled", -1, 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			st := leaseState(t, tt.grace)
			st.applyLease(1, "w2", exp, false)
			sh := &st.shards[1]
			if !st.leaseLive(sh, exp.Add(tt.want-time.Millisecond)) {
				t.Fatal("peer lease dead inside its grace margin")
			}
			if st.leaseLive(sh, exp.Add(tt.want)) {
				t.Fatal("peer lease live past its grace margin")
			}
		})
	}
}

func TestLeaseOwnEchoSuppression(t *testing.T) {
	st := leaseState(t, 0)
	exp := time.Now().Add(DefaultLeaseTTL)
	st.applyLease(0, "w1", exp, true)
	// Absorbing our own appended record — same worker, same millisecond,
	// but a wall-clock round trip through UnixMilli — must not downgrade
	// the monotonic expiry.
	st.applyLease(0, "w1", time.UnixMilli(exp.UnixMilli()), false)
	if !st.shards[0].leaseLocal {
		t.Fatal("own lease echo downgraded a local lease to wall-clock")
	}
	// A different worker's record is a real steal and must replace it.
	st.applyLease(0, "w2", time.UnixMilli(exp.UnixMilli()), false)
	if st.shards[0].leaseLocal || st.shards[0].leaseWorker != "w2" {
		t.Fatal("another worker's lease record did not replace the local lease")
	}
	// As must our own record with a different (renewed) expiry.
	st2 := leaseState(t, 0)
	st2.applyLease(0, "w1", exp, true)
	st2.applyLease(0, "w1", time.UnixMilli(exp.Add(time.Second).UnixMilli()), false)
	if st2.shards[0].leaseLocal {
		t.Fatal("a renewed lease record did not supersede the stale local lease")
	}
}

func TestLeaseIgnoredOnCheckpointedShard(t *testing.T) {
	st := leaseState(t, 0)
	st.shards[1].res = &ShardResult{Shard: 1}
	st.applyLease(1, "w9", time.Now().Add(time.Hour), true)
	if st.shards[1].leaseWorker != "" {
		t.Fatal("lease recorded on a checkpointed shard")
	}
	if st.leaseLive(&st.shards[1], time.Now()) {
		t.Fatal("checkpointed shard reports a live lease")
	}
}

// TestRenewableGuards pins every condition under which a heartbeat must
// be dropped: a renewal may only extend a live lease the same worker
// still holds on an incomplete, in-range shard. Anything else would
// stomp a thief's claim or waste a record.
func TestRenewableGuards(t *testing.T) {
	now := time.Now()
	st := leaseState(t, 0)
	if st.renewable(0, "w1") {
		t.Fatal("renewable with no lease at all")
	}
	st.applyLease(0, "w1", now.Add(time.Hour), true)
	if !st.renewable(0, "w1") {
		t.Fatal("own live lease not renewable")
	}
	if st.renewable(0, "w2") {
		t.Fatal("another worker's lease renewable")
	}
	if st.renewable(-1, "w1") || st.renewable(len(st.shards), "w1") {
		t.Fatal("out-of-range shard renewable")
	}

	// Expired lease: the shard is up for stealing; extending it now
	// would race the thief.
	st2 := leaseState(t, 0)
	st2.applyLease(0, "w1", now.Add(-time.Second), true)
	if st2.renewable(0, "w1") {
		t.Fatal("expired lease renewable")
	}

	// Checkpointed shard: nothing left to protect.
	st3 := leaseState(t, 0)
	st3.applyLease(0, "w1", now.Add(time.Hour), true)
	st3.shards[0].res = &ShardResult{Shard: 0}
	if st3.renewable(0, "w1") {
		t.Fatal("checkpointed shard renewable")
	}

	// Stolen lease: a peer's record, read back, replaced ours mid-shard;
	// our next heartbeat must drop.
	st4 := leaseState(t, 0)
	st4.applyLease(0, "w1", now.Add(time.Hour), true)
	st4.applyLease(0, "thief", now.Add(2*time.Hour), false)
	if st4.renewable(0, "w1") {
		t.Fatal("stolen lease still renewable by the original holder")
	}
	if !st4.renewable(0, "thief") {
		t.Fatal("thief cannot renew the lease it now holds")
	}
}

// TestMemJournalRenewExtendsLease drives the heartbeat protocol on a
// fake clock: a renewal pushes the expiry forward so the shard survives
// past the original TTL, a missed renewal lets a peer steal it, and a
// stale holder's renewal after the steal is a silent no-op.
func TestMemJournalRenewExtendsLease(t *testing.T) {
	base := time.Now()
	cur := base
	j := &MemJournal{st: journalState{now: func() time.Time { return cur }}}
	if err := j.Bind(CampaignMeta{Model: "t", N: 8, ShardSize: 4}); err != nil {
		t.Fatal(err)
	}
	const ttl = time.Second

	shard, state, err := j.Claim("w1", ttl)
	if err != nil || state != ClaimOK || shard != 0 {
		t.Fatalf("claim: %d, %v, %v", shard, state, err)
	}

	// Renew at 900ms: the lease now runs to 1.9s.
	cur = base.Add(900 * time.Millisecond)
	if err := j.Renew("w1", 0, ttl); err != nil {
		t.Fatal(err)
	}

	// At 1.5s — past the original expiry — shard 0 must NOT be
	// stealable; a peer gets the other shard instead.
	cur = base.Add(1500 * time.Millisecond)
	shard, state, err = j.Claim("w2", ttl)
	if err != nil || state != ClaimOK {
		t.Fatalf("peer claim: %v, %v", state, err)
	}
	if shard == 0 {
		t.Fatal("renewed lease was stolen before its extended expiry")
	}

	// At 2s the renewed lease (1.9s) lapsed without another heartbeat:
	// now the steal is legitimate.
	cur = base.Add(2 * time.Second)
	shard, state, err = j.Claim("w3", ttl)
	if err != nil || state != ClaimOK || shard != 0 {
		t.Fatalf("steal after lapsed renewal: %d, %v, %v", shard, state, err)
	}

	// The original holder's late heartbeat must not stomp the thief.
	if err := j.Renew("w1", 0, time.Hour); err != nil {
		t.Fatal(err)
	}
	status, err := j.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range status.Leases {
		if l.Shard == 0 && l.Worker != "w3" {
			t.Fatalf("shard 0 leased by %q, want the thief w3", l.Worker)
		}
	}
}
