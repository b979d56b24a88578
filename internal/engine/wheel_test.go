package engine

import (
	"context"
	"testing"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/pkt"
	"splidt/internal/trace"
)

// wheelEqWorkload builds the expiry-equivalence packet stream: a normal
// interleaved workload where every third flow is truncated (its tail never
// arrives, so its entry can only leave the table through expiry), followed
// by a late cohort of complete flows shifted well past the idle timeout.
// The late cohort advances every shard's packet-time clock far beyond the
// truncated flows' last touches and supplies the bursts that drive expiry,
// so every leaked entry is reclaimed before the stream ends. It returns the
// packets and the number of truncated flows.
func wheelEqWorkload(timeout time.Duration) ([]pkt.Packet, int) {
	flows := trace.Generate(trace.D3, 120, 9)
	truncated := 0
	for i := range flows {
		if i%3 != 0 {
			continue
		}
		keep := len(flows[i].Packets) * 6 / 10
		if keep < 2 {
			keep = 2
		}
		if keep == len(flows[i].Packets) {
			continue
		}
		flows[i].Packets = flows[i].Packets[:keep]
		truncated++
	}
	pkts := trace.Interleave(flows, time.Millisecond)
	var maxTS time.Duration
	for _, p := range pkts {
		if p.TS > maxTS {
			maxTS = p.TS
		}
	}
	late := trace.Generate(trace.D3, 8, 77)
	shift := maxTS + timeout + time.Second
	for i := range late {
		for j := range late[i].Packets {
			late[i].Packets[j].TS += shift
		}
	}
	pkts = append(pkts, trace.Interleave(late, time.Millisecond)...)
	return pkts, truncated
}

// TestWheelMatchesOracle is the expiry subsystem's equivalence pin: the
// wheel-expiry engine must produce exactly the digest multiset, inference
// counters and eviction totals of the reference — one single-threaded
// pipeline over the oracle flow table, expiring after every packet —
// across both table schemes and at 1 and 4 shards, under -race in CI. The
// direct scheme gets a register budget large enough to be collision-free
// on this workload (collisions are its documented deviation from the
// oracle); the cuckoo scheme keeps a small table and stays exact through
// verified lookups. The truncated flows make the eviction totals
// non-trivial, and the reference reclaims every one of them. (One live
// flow has an intra-flow gap over the timeout, so expiry reclaims it
// mid-flow and it classifies again — identically in every configuration.)
func TestWheelMatchesOracle(t *testing.T) {
	const timeout = 2 * time.Second
	pkts, truncated := wheelEqWorkload(timeout)
	if truncated == 0 {
		t.Fatal("workload has no truncated flows; the eviction comparison would be vacuous")
	}

	ocfg := deployCfg(t, 1)
	ocfg.Table = dataplane.TableOracle
	ocfg.IdleTimeout = timeout
	ref, err := dataplane.New(ocfg)
	if err != nil {
		t.Fatalf("dataplane.New(oracle): %v", err)
	}
	var refDigests []dataplane.Digest
	for _, p := range pkts {
		if d := ref.Process(p); d != nil {
			refDigests = append(refDigests, *d)
		}
		ref.Sweep(ref.Clock())
	}
	want := ref.Stats()
	if ref.ActiveFlows() != 0 || want.Evictions < truncated {
		t.Fatalf("reference left %d entries after reclaiming %d, want 0 left and >= %d reclaimed",
			ref.ActiveFlows(), want.Evictions, truncated)
	}
	wantCounts := digestCounts(refDigests)

	// Burst 1 pins the expiry schedule: workers drive Sweep once per burst,
	// and burst grouping depends on scheduling — with larger bursts,
	// whether a leaked entry is reclaimed at a burst boundary before a late
	// packet reaches its slot varies run to run. One packet per burst means
	// expiry runs after every packet, as in the reference.
	for _, tc := range []struct {
		scheme dataplane.TableScheme
		slots  int
	}{{dataplane.TableDirect, 1 << 17}, {dataplane.TableCuckoo, 1 << 12}} {
		for _, shards := range []int{1, 4} {
			cfg := ocfg
			cfg.Table = tc.scheme
			cfg.FlowSlots = tc.slots
			e, err := New(Config{Deploy: cfg, Shards: shards, Burst: 1, Queue: 64})
			if err != nil {
				t.Fatalf("%s/%d: New: %v", tc.scheme, shards, err)
			}
			res, err := e.Run(&SliceSource{Pkts: pkts})
			if err != nil {
				t.Fatalf("%s/%d: Run: %v", tc.scheme, shards, err)
			}
			got := res.Stats
			if got.Packets != want.Packets || got.ControlPackets != want.ControlPackets ||
				got.Digests != want.Digests || got.Collisions != want.Collisions ||
				got.RecircBytes != want.RecircBytes {
				t.Fatalf("%s/%d: inference counters diverge:\noracle %+v\nengine %+v",
					tc.scheme, shards, want, got)
			}
			if got.Evictions != want.Evictions || got.WheelExpiries != got.Evictions {
				t.Fatalf("%s/%d: engine evicted %d entries (%d expiries), oracle %d",
					tc.scheme, shards, got.Evictions, got.WheelExpiries, want.Evictions)
			}
			if e.ActiveFlows() != 0 {
				t.Fatalf("%s/%d: %d entries left at close, want 0", tc.scheme, shards, e.ActiveFlows())
			}
			counts := digestCounts(res.Digests)
			if len(counts) != len(wantCounts) || len(res.Digests) != len(refDigests) {
				t.Fatalf("%s/%d: engine %d digests (%d distinct), oracle %d (%d distinct)",
					tc.scheme, shards, len(res.Digests), len(counts), len(refDigests), len(wantCounts))
			}
			for d, n := range wantCounts {
				if counts[d] != n {
					t.Fatalf("%s/%d: digest %+v count %d, want %d", tc.scheme, shards, d, counts[d], n)
				}
			}
		}
	}
}

// TestBlockedWheelFlowNotResurrected mirrors TestBlockedStashFlowNotResurrected
// under wheel expiry: blocking a stash-resident flow must disarm its timer
// node along with freeing the line. The pinned hazard is a stale deadline —
// if Evict freed the cell without unlinking the node, the next flow to
// claim the line would inherit a timer due at the blocked flow's old
// deadline, and the wheel would expire the live successor the moment the
// clock passed it.
func TestBlockedWheelFlowNotResurrected(t *testing.T) {
	const timeout = time.Second
	cfg := deployCfg(t, 1) // one bucket cell, so the second flow must stash
	cfg.Table = dataplane.TableCuckoo
	cfg.Ways = 1
	cfg.Stash = 1
	cfg.IdleTimeout = timeout
	e, err := New(Config{Deploy: cfg, Shards: 1, Burst: 32, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{}, 8)
	e.shards[0].hold = hold
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	flows := trace.Generate(trace.D3, 3, eqSeed)
	a, b, c := flows[0], flows[1], flows[2]

	// Burst 1: A claims the bucket cell, B the stash line; both arm timers.
	if _, err := s.Feed([]pkt.Packet{a.Packets[0], b.Packets[0]}); err != nil {
		t.Fatal(err)
	}
	hold <- struct{}{}
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == 2 })
	snap := s.Snapshot()
	if snap.Stats.StashInserts != 1 || snap.ActiveFlows != 2 {
		t.Fatalf("setup: stashInserts=%d active=%d, want 1/2 (B in the stash)",
			snap.Stats.StashInserts, snap.ActiveFlows)
	}

	// Block B while its timer is armed, then feed C in the next burst: the
	// worker drains the eviction (which must disarm B's node) right before
	// processing C, so C claims the freed stash line. C is stamped just
	// past B's first packet, leaving B's stale deadline (had it survived)
	// ahead of the clock for now.
	s.Block(b.Key)
	c0 := c.Packets[0]
	c0.TS = b.Packets[0].TS + 100*time.Millisecond
	if _, err := s.Feed([]pkt.Packet{c0}); err != nil {
		t.Fatal(err)
	}
	hold <- struct{}{}
	waitFor(t, func() bool {
		sn := s.Snapshot()
		return sn.Stats.Packets == 3 && sn.Stats.Evictions == 1
	})
	snap = s.Snapshot()
	if snap.Stats.Collisions != 0 || snap.Stats.StashInserts != 2 || snap.ActiveFlows != 2 {
		t.Fatalf("stash reuse: collisions=%d stashInserts=%d active=%d, want 0/2/2",
			snap.Stats.Collisions, snap.Stats.StashInserts, snap.ActiveFlows)
	}

	// Drive the wheel past B's stale deadline (and A's — A legitimately
	// expires, proving the advance actually crossed the window) with a
	// late C packet. C itself was touched at c0.TS and re-arms here, so
	// with B's node disarmed exactly one expiry may fire.
	c1 := c.Packets[1]
	c1.TS = c0.TS + timeout + 200*time.Millisecond
	if _, err := s.Feed([]pkt.Packet{c1}); err != nil {
		t.Fatal(err)
	}
	hold <- struct{}{}
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == 4 })
	snap = s.Snapshot()
	if snap.Stats.WheelExpiries != 1 {
		t.Fatalf("wheel fired %d expiries, want 1 (A only — a second firing means B's stale deadline reclaimed C's line)",
			snap.Stats.WheelExpiries)
	}
	if snap.ActiveFlows != 1 {
		t.Fatalf("ActiveFlows = %d after advance, want 1 (C alive in the reused stash line)", snap.ActiveFlows)
	}

	// C must still own its entry: another packet is an owner hit, not a
	// fresh insert.
	c2 := c.Packets[2]
	c2.TS = c1.TS + time.Millisecond
	if _, err := s.Feed([]pkt.Packet{c2}); err != nil {
		t.Fatal(err)
	}
	hold <- struct{}{}
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == 5 })
	snap = s.Snapshot()
	if snap.Stats.Collisions != 0 || snap.Stats.StashInserts != 2 {
		t.Fatalf("C lost its entry: collisions=%d stashInserts=%d, want 0/2",
			snap.Stats.Collisions, snap.Stats.StashInserts)
	}

	close(hold)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
