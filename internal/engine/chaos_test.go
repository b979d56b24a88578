package engine

// Chaos suite: seeded fault plans (internal/faultinject) injected through
// the session's TestHooks, pinning the tentpole robustness properties —
// delay-only faults never change what the engine emits, a worker panic
// quarantines exactly one shard, shutdown is deadline-bounded even against
// a stuck worker, and a mid-run Redeploy carries flow state across the
// swap. Everything is deterministic in its seeds, so any failure
// reproduces from the test name alone, including under -race.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/faultinject"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/trace"
)

// settleSession waits until every fed packet is accounted for: processed,
// dropped by the block filter, or drained by a quarantined shard. It also
// waits until no shard reads degraded: a shard the watchdog flagged while
// its backlog drained recovers only at the watchdog's next tick, after the
// counts already balance.
func settleSession(t *testing.T, s *Session) Snapshot {
	t.Helper()
	var snap Snapshot
	waitFor(t, func() bool {
		snap = s.Snapshot()
		if int64(snap.Stats.Packets)+snap.Dropped+snap.QuarantineDropped+snap.DiscardedStaged != snap.Fed {
			return false
		}
		for _, sh := range s.Health().Shards {
			if sh.State == ShardDegraded {
				return false
			}
		}
		return true
	})
	return snap
}

// normalizeEpochs zeroes the deploy-epoch stamp on a digest stream copy so
// multisets compare across runs that swapped trees at different times.
func normalizeEpochs(ds []dataplane.Digest) []dataplane.Digest {
	out := append([]dataplane.Digest(nil), ds...)
	for i := range out {
		out[i].Epoch = 0
	}
	return out
}

// mustMatchMultiset fails unless the two digest streams are
// multiset-identical.
func mustMatchMultiset(t *testing.T, name string, got, want []dataplane.Digest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d digests, want %d", name, len(got), len(want))
	}
	wantCounts := digestCounts(want)
	for d, n := range digestCounts(got) {
		if wantCounts[d] != n {
			t.Fatalf("%s: digest %+v count %d, want %d", name, d, n, wantCounts[d])
		}
	}
}

// TestChaosScheduleEquivalence is the chaos headline: under any non-lossy
// seeded fault plan (shard stalls, sink stalls, synthetic ring overflows),
// at 1 and 4 shards, over both the direct and cuckoo flow tables, the
// engine's digest multiset and merged counters are exactly what the
// fault-free run produces. Delay faults may reorder arrival and force the
// backpressure path, but must never change what is computed.
func TestChaosScheduleEquivalence(t *testing.T) {
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	for _, scheme := range []dataplane.TableScheme{dataplane.TableDirect, dataplane.TableCuckoo} {
		cfg := deployCfg(t, eqSlots)
		cfg.Table = scheme
		for _, shards := range []int{1, 4} {
			base, err := mustEngine(t, cfg, shards).Run(&SliceSource{Pkts: pkts})
			if err != nil {
				t.Fatalf("%s/%d: baseline Run: %v", scheme, shards, err)
			}
			for _, seed := range []int64{11, 23} {
				plan := faultinject.NonLossy(seed, shards)
				for _, f := range plan.Faults() {
					if f.Kind.Lossy() {
						t.Fatalf("plan %v contains lossy fault %v", plan, f)
					}
				}
				s, err := mustEngine(t, cfg, shards).Start(context.Background(),
					WithTestHooks(&TestHooks{
						BeforePacket: plan.BeforePacket,
						SinkDigest:   plan.SinkDigest,
						PushRefuse:   plan.PushRefuse,
					}))
				if err != nil {
					t.Fatalf("%s/%d/seed%d: Start: %v", scheme, shards, seed, err)
				}
				if err := s.FeedAll(pkts); err != nil {
					t.Fatalf("%s/%d/seed%d: FeedAll: %v", scheme, shards, seed, err)
				}
				res, err := s.Close()
				if err != nil {
					t.Fatalf("%s/%d/seed%d (%v): Close: %v", scheme, shards, seed, plan, err)
				}
				name := string(scheme) + "/faulted"
				if res.Stats != base.Stats {
					t.Fatalf("%s/%d/seed%d (%v): stats %+v, want %+v",
						scheme, shards, seed, plan, res.Stats, base.Stats)
				}
				mustMatchMultiset(t, name, res.Digests, base.Digests)
				if err := s.Err(); err != nil {
					t.Fatalf("%s/%d/seed%d: session recorded fault %v under non-lossy plan", scheme, shards, seed, err)
				}
			}
		}
	}
}

func mustEngine(t *testing.T, cfg dataplane.Config, shards int) *Engine {
	t.Helper()
	e, err := New(Config{Deploy: cfg, Shards: shards, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatalf("New(%d shards): %v", shards, err)
	}
	return e
}

// TestQuarantineIsolation injects a worker panic on one shard mid-run and
// pins the containment contract: only that shard is quarantined (its
// backlog drains to a drop counter), every other shard keeps processing and
// emitting, Health and Err surface the fault, a private Feeder's Close does
// not deadlock against the dead shard, Session.Close returns promptly with
// the recorded cause, and the engine is reusable afterwards (quarantine is
// per session).
func TestQuarantineIsolation(t *testing.T) {
	const panicShard, panicAt = 2, 40
	cfg := deployCfg(t, eqSlots)
	e := mustEngine(t, cfg, 4)
	plan := faultinject.New(4, faultinject.Fault{
		Kind: faultinject.WorkerPanic, Shard: panicShard, At: panicAt,
	})
	s, err := e.Start(context.Background(), WithTestHooks(&TestHooks{
		BeforePacket: plan.BeforePacket,
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Feed through a private Feeder: its Close must flush cleanly even with
	// a quarantined shard in the dispatch fan-out (the dead shard's ring
	// keeps draining, so nothing wedges).
	f, err := s.NewFeeder()
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	if err := f.FeedAll(pkts); err != nil {
		t.Fatalf("FeedAll across a quarantined shard: %v", err)
	}
	f.Close()
	snap := settleSession(t, s)
	if snap.QuarantineDropped == 0 {
		t.Fatal("quarantined shard drained no packets to the drop counter")
	}

	h := s.Health()
	if h.Err == nil {
		t.Fatal("Health.Err nil after worker panic")
	}
	for i, sh := range h.Shards {
		if i == panicShard {
			if sh.State != ShardQuarantined {
				t.Fatalf("shard %d state %v, want quarantined", i, sh.State)
			}
			if sh.Dropped == 0 {
				t.Fatalf("shard %d reports no quarantine drops", i)
			}
		} else if sh.State == ShardQuarantined {
			t.Fatalf("healthy shard %d reads quarantined — containment leaked", i)
		}
	}
	var spe *ShardPanicError
	if err := s.Err(); !errors.As(err, &spe) || spe.Shard != panicShard {
		t.Fatalf("Err = %v, want ShardPanicError for shard %d", err, panicShard)
	}
	if len(spe.Stack) == 0 {
		t.Fatal("panic cause carries no stack")
	}

	begin := time.Now()
	res, err := s.Close()
	if closeTook := time.Since(begin); closeTook > 3*time.Second {
		t.Fatalf("Close took %v with a quarantined shard (deadline-bounded drain broken)", closeTook)
	}
	if !errors.As(err, &spe) {
		t.Fatalf("Close error = %v, want the recorded ShardPanicError", err)
	}
	for i, st := range res.PerShard {
		if i == panicShard {
			continue
		}
		if st.Digests == 0 {
			t.Fatalf("healthy shard %d emitted no digests after the panic", i)
		}
	}
	// Feed after the fault fails with the cause wrapped into the closed
	// error: callers match either the sentinel or the panic.
	if _, err := s.Feed(pkts[:1]); !errors.Is(err, ErrSessionClosed) || !errors.As(err, &spe) {
		t.Fatalf("Feed after faulted close = %v, want ErrSessionClosed wrapping ShardPanicError", err)
	}
	if err := s.FeedAll(pkts[:1]); !errors.As(err, &spe) {
		t.Fatalf("FeedAll after faulted close = %v, want wrapped ShardPanicError", err)
	}

	// Quarantine is per session: the engine restarts the shard's worker over
	// the replica as the panic left it, like a crashed-and-restarted pipe.
	s2, err := e.Start(context.Background())
	if err != nil {
		t.Fatalf("Start after quarantined session: %v", err)
	}
	if h := s2.Health(); h.Shards[panicShard].State != ShardRunning {
		t.Fatalf("restarted shard %d state %v, want running", panicShard, h.Shards[panicShard].State)
	}
	if _, err := s2.Close(); err != nil {
		t.Fatalf("clean session after quarantine: %v", err)
	}
}

// TestDigestsSurvivePanickingBurst panics a shard's worker later in a burst
// in which that shard has already emitted a digest. Workers hand a burst's
// digests to the session's log only at the burst's end, so the panic fence
// must flush the ones emitted before the panic: Stats.Digests already
// counts them, and the stream must carry every digest Stats counts.
func TestDigestsSurvivePanickingBurst(t *testing.T) {
	const panicShard = 0
	cfg := deployCfg(t, eqSlots)
	e := mustEngine(t, cfg, 2)
	sh := e.shards[panicShard]
	var fired atomic.Bool
	var prePanic []dataplane.Digest // written by the worker before it panics
	s, err := e.Start(context.Background(), WithTestHooks(&TestHooks{
		BeforePacket: func(shard int, _ *pkt.Packet) {
			// The hook runs on the shard's own worker, so reading its
			// digest scratch here is race-free.
			if shard != panicShard || len(sh.digests) == 0 || !fired.CompareAndSwap(false, true) {
				return
			}
			prePanic = append([]dataplane.Digest(nil), sh.digests...)
			panic("injected: panic after a digest in the same burst")
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	if err := s.FeedAll(pkts); err != nil {
		t.Fatalf("FeedAll: %v", err)
	}
	res, err := s.Close()
	var spe *ShardPanicError
	if !errors.As(err, &spe) || spe.Shard != panicShard {
		t.Fatalf("Close error = %v, want ShardPanicError for shard %d", err, panicShard)
	}
	if !fired.Load() || len(prePanic) == 0 {
		t.Fatal("no burst on the panic shard emitted a digest before a later packet")
	}
	if len(res.Digests) != res.Stats.Digests {
		t.Fatalf("stream carries %d digests, Stats counted %d", len(res.Digests), res.Stats.Digests)
	}
	got := digestCounts(res.Digests)
	for d, n := range digestCounts(prePanic) {
		if got[d] < n {
			t.Fatalf("pre-panic digest %+v in the stream %d times, want %d", d, got[d], n)
		}
	}
}

// TestShutdownDeadline sticks a worker mid-burst and pins the bounded
// teardown: Close returns within the configured ShutdownTimeout with
// ErrShutdownTimeout, and the engine is poisoned (the stuck worker still
// owns its replica, so no further session may start).
func TestShutdownDeadline(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 16, Queue: 4,
		ShutdownTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	unstick := make(chan struct{})
	t.Cleanup(func() { close(unstick) }) // let the stuck goroutine die after the test
	s, err := e.Start(context.Background(), WithTestHooks(&TestHooks{
		BeforePacket: func(shard int, _ *pkt.Packet) {
			if shard == 0 {
				<-unstick
			}
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Feed only as much as the stuck shard can absorb (its input ring plus
	// the feeder's staging pool). Backpressure is deliberately unbounded —
	// FeedAll against a permanently wedged worker waits until Close gives
	// up on it (TestFeedAllWakesOnShutdownTimeout) — so the bounded thing
	// under test here is shutdown, not feeding.
	pkts := trace.Interleave(trace.Generate(trace.D3, 20, eqSeed), eqSpacing)[:40]
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	_, err = s.Close()
	elapsed := time.Since(begin)
	if !errors.Is(err, ErrShutdownTimeout) {
		t.Fatalf("Close = %v after %v, want ErrShutdownTimeout", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Close took %v, deadline was 150ms", elapsed)
	}
	if !errors.Is(s.Err(), ErrShutdownTimeout) {
		t.Fatalf("Err = %v, want ErrShutdownTimeout", s.Err())
	}
	if _, err := e.Start(context.Background()); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("Start on poisoned engine = %v, want ErrSessionActive", err)
	}
	if _, err := s.Feed(pkts[:1]); !errors.Is(err, ErrShutdownTimeout) {
		t.Fatalf("Feed after timed-out close = %v, want wrapped ErrShutdownTimeout", err)
	}
}

// TestRedeployStateCarry pins the hitless-swap contract. Same tree swapped
// mid-run: the digest multiset (deploy-epoch stamps normalised) must equal
// the single-deploy baseline's — flow state carried across the epoch
// handoff bit-for-bit, zero flows dropped — and digests split across both
// epochs. A different tree swapped mid-run: orphaned subtree states restart
// at the root and the session still accounts for every packet.
func TestRedeployStateCarry(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	half := len(pkts) / 2

	base, err := mustEngine(t, cfg, 4).Run(&SliceSource{Pkts: pkts})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("same-tree", func(t *testing.T) {
		s, err := mustEngine(t, cfg, 4).Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(pkts[:half]); err != nil {
			t.Fatal(err)
		}
		settleSession(t, s)
		epoch, err := s.Redeploy(cfg.Model, cfg.Compiled)
		if err != nil {
			t.Fatalf("Redeploy: %v", err)
		}
		if epoch == 0 {
			t.Fatal("Redeploy returned epoch 0 (reserved for the construction deployment)")
		}
		if err := s.FeedAll(pkts[half:]); err != nil {
			t.Fatal(err)
		}
		res, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if res.Dropped != 0 {
			t.Fatalf("%d packets dropped across a same-tree redeploy", res.Dropped)
		}
		if snap := s.Snapshot(); snap.QuarantineDropped != 0 || snap.DiscardedStaged != 0 {
			t.Fatalf("redeploy lost packets: %+v", snap)
		}
		mustMatchMultiset(t, "same-tree redeploy", normalizeEpochs(res.Digests), normalizeEpochs(base.Digests))
		var pre, post int
		for _, d := range res.Digests {
			if d.Epoch == epoch {
				post++
			} else {
				pre++
			}
		}
		if pre == 0 || post == 0 {
			t.Fatalf("digest epochs not split across the swap: %d pre, %d post", pre, post)
		}
		if h := s.Health(); h.Shards[0].Epoch != epoch {
			t.Fatalf("Health reports epoch %d, want %d", h.Shards[0].Epoch, epoch)
		}
	})

	t.Run("different-tree", func(t *testing.T) {
		// An independently trained tree of the same architecture: live
		// entries whose subtree IDs it does not define must restart at the
		// root instead of indexing a stale table.
		flows2 := trace.Generate(trace.D3, 400, 99)
		train2, _ := trace.Split(trace.BuildSamples(flows2, 3), 0.7)
		m2, err := core.Train(train2, core.Config{
			Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 13,
		})
		if err != nil {
			t.Fatalf("retrain: %v", err)
		}
		c2, err := rangemark.Compile(m2)
		if err != nil {
			t.Fatalf("recompile: %v", err)
		}
		s, err := mustEngine(t, cfg, 4).Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(pkts[:half]); err != nil {
			t.Fatal(err)
		}
		epoch, err := s.Redeploy(m2, c2)
		if err != nil {
			t.Fatalf("Redeploy(different tree): %v", err)
		}
		if err := s.FeedAll(pkts[half:]); err != nil {
			t.Fatal(err)
		}
		res, err := s.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if res.Dropped != 0 {
			t.Fatalf("%d packets dropped across a different-tree redeploy", res.Dropped)
		}
		if int64(res.Stats.Packets) != s.Snapshot().Fed {
			t.Fatalf("processed %d of %d fed packets", res.Stats.Packets, s.Snapshot().Fed)
		}
		if res.Stats.Digests == 0 {
			t.Fatal("no digests after a different-tree redeploy")
		}
		for _, sh := range s.Health().Shards {
			if sh.Epoch != epoch {
				t.Fatalf("shard still on epoch %d, want %d", sh.Epoch, epoch)
			}
		}
	})
}

// TestRedeployValidates: a redeploy that fails the deployed geometry's
// feasibility check is rejected atomically — no shard adopts anything.
func TestRedeployValidates(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	s, err := mustEngine(t, cfg, 2).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Redeploy(nil, nil); err == nil {
		t.Fatal("Redeploy(nil, nil) accepted")
	}
	for i, sh := range s.Health().Shards {
		if sh.Epoch != 0 {
			t.Fatalf("shard %d adopted epoch %d from a rejected redeploy", i, sh.Epoch)
		}
	}
}
