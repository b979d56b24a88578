package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"splidt/internal/pkt"
	"splidt/internal/trace"
)

// TestParallelFeedersMatchRun is the parallel-dispatch headline property:
// M concurrent feeders over a flow-disjoint partition of one workload must
// produce the same digest multiset and the same merged counters as
// Engine.Run over the interleaved whole, at every (feeders, shards)
// combination. Run under -race this also exercises the MPSC shard rings
// and the per-feeder free rings across real producer concurrency.
func TestParallelFeedersMatchRun(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	for _, shards := range []int{1, 4} {
		batch, err := New(Config{Deploy: cfg, Shards: shards, Burst: 16, Queue: 4})
		if err != nil {
			t.Fatalf("New batch (%d shards): %v", shards, err)
		}
		want, err := batch.Run(&SliceSource{Pkts: pkts})
		if err != nil {
			t.Fatalf("Run (%d shards): %v", shards, err)
		}
		for _, feeders := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("feeders=%d/shards=%d", feeders, shards), func(t *testing.T) {
				e, err := New(Config{Deploy: cfg, Shards: shards, Burst: 16, Queue: 4})
				if err != nil {
					t.Fatal(err)
				}
				s, err := e.Start(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				parts := trace.Partition(pkts, feeders)
				var wg sync.WaitGroup
				for _, part := range parts {
					f, err := s.NewFeeder()
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(part []pkt.Packet) {
						defer wg.Done()
						if err := f.FeedAll(part); err != nil {
							t.Errorf("FeedAll: %v", err)
						}
						f.Close()
					}(part)
				}
				wg.Wait()
				got, err := s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats != want.Stats {
					t.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
				}
				wantCounts := digestCounts(want.Digests)
				gotCounts := digestCounts(got.Digests)
				if len(got.Digests) != len(want.Digests) || len(gotCounts) != len(wantCounts) {
					t.Fatalf("%d digests (%d distinct), want %d (%d distinct)",
						len(got.Digests), len(gotCounts), len(want.Digests), len(wantCounts))
				}
				for d, n := range wantCounts {
					if gotCounts[d] != n {
						t.Fatalf("digest %+v count %d, want %d", d, gotCounts[d], n)
					}
				}
				// The deterministic final ordering must match Run's exactly:
				// with packet-disjoint feeders the multiset is identical, and
				// sortDigests fixes a total order on it.
				for i := range got.Digests {
					if got.Digests[i] != want.Digests[i] {
						t.Fatalf("ordered stream diverges at %d", i)
					}
				}
			})
		}
	}
}

// TestFeederCloseFlushesStaged forces a burst to stay staged inside a
// feeder (workers gated, shard rings full, so Feed's best-effort flush
// cannot place it), then checks Feeder.Close delivers it once the workers
// resume — staged packets must never wait for Session.Close. Also pins the
// closed-feeder error and Close's idempotence.
func TestFeederCloseFlushesStaged(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 4, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	for _, sh := range e.shards {
		sh.hold = hold
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.NewFeeder()
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(trace.Generate(trace.D3, 40, eqSeed), 0)
	fed := 0
	for {
		n, err := f.Feed(pkts[fed:])
		fed += n
		if err == ErrBackpressure {
			break
		}
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		if fed == len(pkts) {
			t.Fatal("gated workers accepted the whole workload; staged-burst scenario needs backpressure")
		}
	}
	staged := false
	f.mu.Lock()
	for _, b := range f.cur {
		if b != nil && len(b.pkts) > 0 {
			staged = true
		}
	}
	f.mu.Unlock()
	if !staged {
		t.Fatal("backpressure left nothing staged in the feeder")
	}
	close(hold) // workers resume; Close's flush can land
	f.Close()
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == fed })
	if _, err := f.Feed(pkts); err != ErrFeederClosed {
		t.Fatalf("Feed after Close = %v, want ErrFeederClosed", err)
	}
	f.Close() // idempotent
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets != fed {
		t.Fatalf("processed %d packets, want the %d accepted", res.Stats.Packets, fed)
	}
}

// TestFeederSessionCloseInterleavings hammers the shutdown interlock: many
// feeders feeding and closing themselves while Session.Close runs
// concurrently. Nothing may deadlock, double-deliver, or lose accounting:
// processed + dropped must equal fed whichever side wins each race.
func TestFeederSessionCloseInterleavings(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, 80, eqSeed), 0)
	for round := 0; round < 8; round++ {
		e, err := New(Config{Deploy: cfg, Shards: 4, Burst: 8, Queue: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		parts := trace.Partition(pkts, 4)
		var wg sync.WaitGroup
		for i, part := range parts {
			f, err := s.NewFeeder()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(f *Feeder, part []pkt.Packet, closeSelf bool) {
				defer wg.Done()
				off := 0
				for off < len(part) {
					n, err := f.Feed(part[off:])
					off += n
					if err == ErrBackpressure {
						runtime.Gosched()
						continue
					}
					if err != nil {
						// The session (or this feeder) was closed under us —
						// an allowed interleaving; already-accepted packets
						// stay accounted for.
						return
					}
				}
				if closeSelf {
					f.Close()
				}
			}(f, part, i%2 == 0) // half close themselves, half are left to Session.Close
		}
		// Close the session concurrently with the feeders on even rounds;
		// after a clean drain on odd ones.
		if round%2 == 1 {
			wg.Wait()
		}
		res, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		snap := s.Snapshot()
		if int64(res.Stats.Packets)+res.Dropped != snap.Fed {
			t.Fatalf("round %d: processed %d + dropped %d != fed %d",
				round, res.Stats.Packets, res.Dropped, snap.Fed)
		}
		// After a full (uncontended) drain every packet must be there.
		if round%2 == 1 && res.Stats.Packets != len(pkts) {
			t.Fatalf("round %d: processed %d packets, want %d", round, res.Stats.Packets, len(pkts))
		}
		if _, err := s.NewFeeder(); err != ErrSessionClosed {
			t.Fatalf("NewFeeder after Close = %v, want ErrSessionClosed", err)
		}
	}
}

// TestFeederFlushRotation pins the flush-fairness fix: with shard 0's ring
// wedged full, bursts staged for the other shards must still flush on the
// next flush attempts — the rotation must not depend on shard 0 ever
// draining.
func TestFeederFlushRotation(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 4, Burst: 16, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	for _, sh := range e.shards {
		sh.hold = hold
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.NewFeeder()
	if err != nil {
		t.Fatal(err)
	}
	// One real packet per shard, so every shard has a non-empty staged
	// burst to flush.
	pkts := trace.Interleave(trace.Generate(trace.D3, 60, eqSeed), 0)
	perShard := make([]pkt.Packet, len(e.shards))
	seen := 0
	for _, p := range pkts {
		si := p.Shard(len(e.shards))
		if perShard[si] == (pkt.Packet{}) {
			perShard[si] = p
			if seen++; seen == len(e.shards) {
				break
			}
		}
	}
	if seen != len(e.shards) {
		t.Fatalf("workload covers only %d of %d shards", seen, len(e.shards))
	}
	f.mu.Lock()
	for i, p := range perShard {
		b, ok := f.free[i].tryPop()
		if !ok {
			t.Fatal("fresh feeder has no free bursts")
		}
		b.pkts = append(b.pkts, p)
		f.cur[i] = b
	}
	// Wedge shard 0: fill its input ring with filler bursts that recycle to
	// a throwaway home ring (the gated worker drains them later). The first
	// push wakes the worker, which takes one filler and stops at the hold
	// gate; wait for that, then refill the slot it freed, so the ring stays
	// full however the worker was scheduled.
	dummy := newRing(8)
	in := e.shards[0].in
	for in.tryPush(&burst{home: dummy}) {
	}
	waitFor(t, func() bool { return in.pops.Load() == 1 })
	for in.tryPush(&burst{home: dummy}) {
	}
	for i := 0; i < len(f.cur); i++ {
		f.flushStaged()
	}
	for i := 1; i < len(f.cur); i++ {
		if f.cur[i] != nil {
			t.Fatalf("shard %d staged burst starved behind wedged shard 0", i)
		}
	}
	if f.cur[0] == nil {
		t.Fatal("shard 0's burst flushed into a full ring")
	}
	f.mu.Unlock()
	close(hold)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
