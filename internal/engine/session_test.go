package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"splidt/internal/controller"
	"splidt/internal/dataplane"
	"splidt/internal/flow"
	"splidt/internal/pkt"
	"splidt/internal/trace"
)

// TestStreamingMatchesBatch is the redesign's headline property: for the
// same trace, Start/Feed/Close must produce the same digest multiset and
// the same merged counters as Engine.Run, at every shard count. Run under
// -race this also exercises Feed/worker/digest-log concurrency.
func TestStreamingMatchesBatch(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	for _, shards := range []int{1, 2, 4, 8} {
		batch, err := New(Config{Deploy: cfg, Shards: shards, Burst: 16, Queue: 4})
		if err != nil {
			t.Fatalf("New batch (%d shards): %v", shards, err)
		}
		want, err := batch.Run(trace.NewStream(trace.D3, eqFlows, eqSeed, eqSpacing))
		if err != nil {
			t.Fatalf("Run (%d shards): %v", shards, err)
		}

		stream, err := New(Config{Deploy: cfg, Shards: shards, Burst: 16, Queue: 4})
		if err != nil {
			t.Fatalf("New stream (%d shards): %v", shards, err)
		}
		sess, err := stream.Start(context.Background())
		if err != nil {
			t.Fatalf("Start (%d shards): %v", shards, err)
		}
		src := trace.NewStream(trace.D3, eqFlows, eqSeed, eqSpacing)
		var stage []pkt.Packet
		for {
			p, ok := src.Next()
			if ok {
				stage = append(stage, p)
			}
			// Odd batch size exercises partial-burst flushes.
			if len(stage) >= 97 || (!ok && len(stage) > 0) {
				off := 0
				for off < len(stage) {
					n, err := sess.Feed(stage[off:])
					off += n
					if err == ErrBackpressure {
						time.Sleep(time.Microsecond)
						continue
					}
					if err != nil {
						t.Fatalf("Feed (%d shards): %v", shards, err)
					}
				}
				stage = stage[:0]
			}
			if !ok {
				break
			}
		}
		got, err := sess.Close()
		if err != nil {
			t.Fatalf("Close (%d shards): %v", shards, err)
		}

		if got.Stats != want.Stats {
			t.Errorf("%d shards: streaming stats %+v, want %+v", shards, got.Stats, want.Stats)
		}
		wantCounts := digestCounts(want.Digests)
		gotCounts := digestCounts(got.Digests)
		if len(got.Digests) != len(want.Digests) || len(gotCounts) != len(wantCounts) {
			t.Fatalf("%d shards: %d digests (%d distinct), want %d (%d distinct)",
				shards, len(got.Digests), len(gotCounts), len(want.Digests), len(wantCounts))
		}
		for d, n := range wantCounts {
			if gotCounts[d] != n {
				t.Fatalf("%d shards: digest %+v count %d, want %d", shards, d, gotCounts[d], n)
			}
		}
		// The deterministic final ordering must match Run's exactly.
		for i := range got.Digests {
			if got.Digests[i] != want.Digests[i] {
				t.Fatalf("%d shards: ordered stream diverges at %d", shards, i)
			}
		}
	}
}

// TestSessionBackpressure pins the non-blocking Feed contract: with the
// workers gated, flooding one shard must surface ErrBackpressure (not
// deadlock), and releasing the workers must let the remainder through with
// nothing lost.
func TestSessionBackpressure(t *testing.T) {
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

	pkts := trace.Interleave(trace.Generate(trace.D3, 40, eqSeed), 0)
	fed := 0
	sawBackpressure := false
	for tries := 0; fed < len(pkts); tries++ {
		n, err := s.Feed(pkts[fed:])
		fed += n
		if err == ErrBackpressure {
			sawBackpressure = true
			break
		}
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	if !sawBackpressure {
		t.Fatal("gated workers never produced ErrBackpressure")
	}
	if snap := s.Snapshot(); snap.Backpressure == 0 {
		t.Fatal("backpressure not counted in snapshot")
	}

	// Release the workers; the rest of the workload must drain normally.
	close(hold)
	for fed < len(pkts) {
		n, err := s.Feed(pkts[fed:])
		fed += n
		if err == ErrBackpressure {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("Feed after release: %v", err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets != len(pkts) {
		t.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
	}
}

// TestSessionBlockDropsMidRun feeds a workload twice through one session,
// blocking every flow after its first digest: the second wave must be
// dropped at the dispatch stage, visible in Snapshot and Result, without
// touching the pipelines.
func TestSessionBlockDropsMidRun(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 4, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(trace.Generate(trace.D3, 60, eqSeed), eqSpacing)

	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	// Drain wave 1's digests and block every classified flow.
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == len(pkts) })
	buf := make([]dataplane.Digest, 256)
	blocked := 0
	for {
		n := s.Poll(buf)
		if n == 0 {
			break
		}
		for _, d := range buf[:n] {
			s.Block(d.Key)
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("wave 1 produced no digests to block")
	}
	if snap := s.Snapshot(); snap.BlockedFlows != blocked {
		t.Fatalf("BlockedFlows = %d, want %d", snap.BlockedFlows, blocked)
	}

	// Wave 2: the same flows again. Every packet of a blocked flow must be
	// dropped before dispatch.
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no packets dropped for blocked flows")
	}
	if got := res.Stats.Packets + int(res.Dropped); got != 2*len(pkts) {
		t.Fatalf("processed+dropped = %d, want %d", got, 2*len(pkts))
	}
	if snap := s.Snapshot(); snap.Dropped != res.Dropped {
		t.Fatalf("snapshot dropped %d != result dropped %d", snap.Dropped, res.Dropped)
	}
}

// TestSessionControllerLoop wires Controller.Serve into a live session and
// checks the full detect→block path: flows of blocked classes stop
// consuming pipeline work on the second wave.
func TestSessionControllerLoop(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.New(13, controller.BlockClasses(0, 1, 2, 3, 4, 5))
	served := make(chan int, 1)
	go func() {
		blocked, serveErr := ctrl.Serve(s)
		if serveErr != nil {
			t.Errorf("Serve reported a fault on a healthy session: %v", serveErr)
		}
		served <- blocked
	}()

	pkts := trace.Interleave(trace.Generate(trace.D3, 80, eqSeed), eqSpacing)
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	// Wait until wave 1 has fully resolved: every packet either processed
	// or dropped mid-run (the controller blocks early-exiting flows while
	// their tails are still arriving), and the controller has acted on
	// every digest.
	waitFor(t, func() bool {
		snap := s.Snapshot()
		return snap.Stats.Packets+int(snap.Dropped) == len(pkts)
	})
	waitFor(t, func() bool {
		snap := s.Snapshot()
		return snap.Stats.Digests > 0 && ctrl.Digests() >= snap.Stats.Digests
	})
	if s.Snapshot().BlockedFlows == 0 {
		t.Fatal("controller blocked no flows in wave 1")
	}
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	blocked := <-served
	if blocked == 0 {
		t.Fatal("Serve reported no block verdicts")
	}
	if res.Dropped == 0 {
		t.Fatal("blocked flows were not dropped at dispatch")
	}
	if acts := ctrl.ActionCounts(); acts[controller.ActionBlock] != blocked {
		t.Fatalf("controller block count %d != Serve's %d", acts[controller.ActionBlock], blocked)
	}
}

// TestSessionContextCancel: cancelling the context aborts the session; Feed
// starts failing and Close reports the context error.
func TestSessionContextCancel(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := e.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(trace.Generate(trace.D3, 10, eqSeed), 0)
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Feed's error after the abort wraps the recorded cause: callers match
	// both the closed sentinel and the reason the session died.
	waitFor(t, func() bool {
		_, err := s.Feed(pkts[:1])
		return errors.Is(err, ErrSessionClosed)
	})
	if _, err := s.Feed(pkts[:1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Feed after cancel = %v, want the recorded context cause wrapped in", err)
	}
	if _, err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v, want context.Canceled", err)
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancel = %v, want context.Canceled", err)
	}
	// The engine must be reusable after an aborted session.
	if _, err := e.Run(trace.NewStream(trace.D3, 5, eqSeed, 0)); err != nil {
		t.Fatalf("Run after aborted session: %v", err)
	}
}

// TestSessionExclusive: one session at a time; Close releases the engine.
func TestSessionExclusive(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Start(context.Background()); err != ErrSessionActive {
		t.Fatalf("second Start = %v, want ErrSessionActive", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := e.Start(context.Background())
	if err != nil {
		t.Fatalf("Start after Close: %v", err)
	}
	if _, err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionDigestChannel consumes the live channel concurrently with the
// feed and checks every digest arrives exactly once, with ActiveFlows and
// Snapshot readable throughout.
func TestSessionDigestChannel(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var live []dataplane.Digest
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range s.Digests() {
			live = append(live, d)
			_ = e.ActiveFlows() // must be safe mid-run
			_ = s.Snapshot()
		}
	}()
	pkts := trace.Interleave(trace.Generate(trace.D3, 60, eqSeed), eqSpacing)
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	want := digestCounts(res.Digests)
	got := digestCounts(live)
	if len(live) != len(res.Digests) || len(got) != len(want) {
		t.Fatalf("live stream carried %d digests, result has %d", len(live), len(res.Digests))
	}
	for d, n := range want {
		if got[d] != n {
			t.Fatalf("live stream digest %+v count %d, want %d", d, got[d], n)
		}
	}
	if e.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after drain", e.ActiveFlows())
	}
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// feedBlockingDigests drives the leak scenario: the workload is fed in
// small chunks and every digest is answered with blockFn mid-stream, so
// early-exited flows get their remaining packets dropped at the dispatcher
// while their register slots sit parked. It returns how many flows drew a
// block.
//
// Digests reach Poll asynchronously, so a consumer that only polls between
// chunks can fall arbitrarily far behind the workers — on a loaded host,
// far enough that every verdict lands after the tails it should drop. So
// after each chunk it waits for the workers to go quiet, then drains until
// every digest they emitted has been answered, before feeding the next.
func feedBlockingDigests(t *testing.T, s *Session, pkts []pkt.Packet, blockFn func(flow.Key)) int {
	t.Helper()
	buf := make([]dataplane.Digest, 256)
	blocked := 0
	const chunk = 512
	for off := 0; off < len(pkts); off += chunk {
		end := off + chunk
		if end > len(pkts) {
			end = len(pkts)
		}
		if err := s.FeedAll(pkts[off:end]); err != nil {
			t.Fatalf("FeedAll: %v", err)
		}
		// Every packet fed so far is either processed or dropped at
		// dispatch...
		waitFor(t, func() bool {
			snap := s.Snapshot()
			return int64(snap.Stats.Packets)+snap.Dropped == snap.Fed
		})
		// ...and every digest it produced is answered.
		digests := s.Snapshot().Stats.Digests
		waitFor(t, func() bool {
			for {
				n := s.Poll(buf)
				if n == 0 {
					return blocked == digests
				}
				for _, d := range buf[:n] {
					blockFn(d.Key)
					blocked++
				}
			}
		})
	}
	return blocked
}

// shiftTS returns the packets with timestamps offset by d — a later traffic
// wave on the session's packet-time axis.
func shiftTS(pkts []pkt.Packet, d time.Duration) []pkt.Packet {
	out := make([]pkt.Packet, len(pkts))
	copy(out, pkts)
	for i := range out {
		out[i].TS += d
	}
	return out
}

// TestBlockedFlowLeakRegression is the ageing subsystem's reason to exist,
// in failing-then-fixed shape. PR 2's Block was a dispatch drop filter
// only: blocking a flow that had early-exited left its parked register
// slot waiting for a flow-end packet the dispatcher would now drop, so the
// slot leaked — ActiveFlows never returned to ~0. The test reproduces that
// exact behaviour through the internal filter (leg 1), then shows idle
// expiry on the timer wheel reclaiming the leak with ageing enabled (leg
// 2), and the new Block evicting it immediately even with ageing off (leg
// 3).
func TestBlockedFlowLeakRegression(t *testing.T) {
	wave1 := trace.Interleave(trace.Generate(trace.D3, 60, eqSeed), eqSpacing)
	// Wave 2: different flows (fresh seed) far enough into packet time that
	// everything wave 1 leaked has been idle for longer than the timeout.
	wave2 := shiftTS(trace.Interleave(trace.Generate(trace.D3, 60, eqSeed+1), eqSpacing), 40*time.Second)

	run := func(idle time.Duration, useFilterOnly bool) (leaked, final, evictions int) {
		cfg := deployCfg(t, 1<<14)
		cfg.IdleTimeout = idle
		e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 16, Queue: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		blockFn := s.Block
		if useFilterOnly {
			// PR-2 semantics: drop filter without eviction — the buggy shape.
			blockFn = func(k flow.Key) { s.filter.block(k) }
		}
		if blocked := feedBlockingDigests(t, s, wave1, blockFn); blocked == 0 {
			t.Fatal("wave 1 produced no digests to block")
		}
		// Give pending Block evictions a chance to land (they publish).
		waitFor(t, func() bool {
			snap := s.Snapshot()
			return useFilterOnly || snap.Stats.Evictions > 0 || snap.ActiveFlows == 0
		})
		leaked = s.Snapshot().ActiveFlows

		// Wave 2 drives packet time (and with it the per-shard expiry
		// wheels) forward; its own flows complete and free their slots.
		if err := s.FeedAll(wave2); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		return leaked, snap.ActiveFlows, snap.Stats.Evictions
	}

	// Leg 1 — the regression: ageing off, filter-only block. Early-exited
	// blocked flows leak their slots and nothing ever reclaims them.
	leaked, final, evictions := run(0, true)
	if leaked == 0 {
		t.Fatal("filter-only blocking leaked no slots; the regression scenario needs early-exited blocked flows")
	}
	if final < leaked {
		t.Fatalf("ageing off: leak shrank from %d to %d slots without any eviction mechanism", leaked, final)
	}
	if evictions != 0 {
		t.Fatalf("ageing off: %d evictions counted", evictions)
	}

	// Leg 2 — the fix, ageing arm: same buggy filter-only blocking, but the
	// parked-dead slots' wheel deadlines expire as wave 2's packet time
	// passes the timeout.
	leaked2, final2, evictions2 := run(10*time.Second, true)
	if leaked2 == 0 {
		t.Fatal("ageing on: wave 1 leaked nothing to reclaim")
	}
	if final2 >= leaked2 {
		t.Fatalf("expiry reclaimed nothing: %d leaked, %d still active", leaked2, final2)
	}
	if evictions2 < leaked2 {
		t.Fatalf("expiry evicted %d slots, want at least the %d leaked", evictions2, leaked2)
	}
	if final2 > 2 {
		t.Fatalf("ActiveFlows = %d after expiry, want ~0", final2)
	}

	// Leg 3 — the fix, eviction arm: Block reclaims the slot at verdict
	// time, ageing not required. The filter entry lands before the
	// eviction and the workers re-check it per packet, so tail packets
	// already queued in the shard rings cannot re-activate the freed slot.
	_, final3, evictions3 := run(0, false)
	if evictions3 == 0 {
		t.Fatal("evicting Block counted no evictions")
	}
	if final3 > 2 {
		t.Fatalf("ActiveFlows = %d at close with evicting Block, want ~0", final3)
	}

	// Leg 4 — the shipped configuration, both arms: evict-on-Block plus
	// idle expiry leave no leak at all.
	_, final4, evictions4 := run(10*time.Second, false)
	if final4 > 2 {
		t.Fatalf("ActiveFlows = %d with eviction and ageing, want ~0", final4)
	}
	if evictions4 == 0 {
		t.Fatal("no evictions counted with eviction and ageing enabled")
	}
}

// TestSessionBoundedDigestRetention pins both retention modes: by default a
// session keeps every digest for Close's complete deterministic Result even
// after delivering them through Poll; WithBoundedDigests drops digests once
// delivered, so the Result carries only the undelivered tail.
func TestSessionBoundedDigestRetention(t *testing.T) {
	pkts := trace.Interleave(trace.Generate(trace.D3, 40, eqSeed), 0)
	for _, bounded := range []bool{false, true} {
		cfg := deployCfg(t, eqSlots)
		e, err := New(Config{Deploy: cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var opts []SessionOption
		if bounded {
			opts = append(opts, WithBoundedDigests())
		}
		s, err := e.Start(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(pkts); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return s.Snapshot().Stats.Packets == len(pkts) })

		// Drain the full stream mid-session.
		buf := make([]dataplane.Digest, 64)
		var drained []dataplane.Digest
		waitFor(t, func() bool {
			for {
				n := s.Poll(buf)
				if n == 0 {
					break
				}
				drained = append(drained, buf[:n]...)
			}
			return len(drained) >= s.Snapshot().Stats.Digests
		})
		if len(drained) == 0 {
			t.Fatal("no digests to drain")
		}

		res, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bounded {
			if len(res.Digests) != 0 {
				t.Fatalf("bounded mode: Result kept %d delivered digests, want 0", len(res.Digests))
			}
		} else {
			if len(res.Digests) != len(drained) {
				t.Fatalf("retain mode: Result has %d digests, drained %d — Close must keep the complete stream", len(res.Digests), len(drained))
			}
		}
		// Either way, exactly-once delivery through Poll: drained multiset
		// equals the processed digest count.
		if len(drained) != res.Stats.Digests {
			t.Fatalf("drained %d digests, stats counted %d", len(drained), res.Stats.Digests)
		}
	}
}

// TestSessionBoundedDigestChannel checks drop-after-delivery under channel
// consumption: the pump's compaction must not drop, duplicate, or reorder
// deliveries.
func TestSessionBoundedDigestChannel(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background(), WithBoundedDigests())
	if err != nil {
		t.Fatal(err)
	}
	var live []dataplane.Digest
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range s.Digests() {
			live = append(live, d)
		}
	}()
	pkts := trace.Interleave(trace.Generate(trace.D3, 60, eqSeed), eqSpacing)
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if len(live) != res.Stats.Digests {
		t.Fatalf("channel delivered %d digests, stats counted %d", len(live), res.Stats.Digests)
	}
	// Result may only carry digests that were still undelivered at Close.
	liveCounts := digestCounts(live)
	for _, d := range res.Digests {
		if liveCounts[d] == 0 {
			t.Fatalf("Result digest %+v never reached the channel", d)
		}
	}
}

// TestSessionPollAndDigestsShareCursor drains one session through Poll and
// Digests() at the same time. Both take from one delivery cursor over the
// session's digest log, so together they must deliver every digest exactly
// once: their union equals Stats.Digests and the multiset a retain-mode
// twin run returns. The feed runs in three thirds — Poll alone, both at
// once, the channel alone — so each path is sure to take a share.
func TestSessionPollAndDigestsShareCursor(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	want, err := mustEngine(t, cfg, 4).Run(&SliceSource{Pkts: pkts})
	if err != nil {
		t.Fatal(err)
	}

	s, err := mustEngine(t, cfg, 4).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	third := len(pkts) / 3
	buf := make([]dataplane.Digest, 16)
	var polled []dataplane.Digest
	if err := s.FeedAll(pkts[:third]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		n := s.Poll(buf)
		polled = append(polled, buf[:n]...)
		return len(polled) > 0
	})

	var viaChan []dataplane.Digest
	chanDone := make(chan struct{})
	go func() {
		defer close(chanDone)
		for d := range s.Digests() {
			viaChan = append(viaChan, d)
		}
	}()
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			n := s.Poll(buf)
			polled = append(polled, buf[:n]...)
			if n == 0 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	if err := s.FeedAll(pkts[third : 2*third]); err != nil {
		t.Fatal(err)
	}
	close(stopPoll)
	<-pollDone

	if err := s.FeedAll(pkts[2*third:]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-chanDone
	if n := s.Poll(buf); n != 0 {
		t.Fatalf("Poll returned %d digests after the channel closed", n)
	}
	if len(viaChan) == 0 {
		t.Fatal("channel delivered nothing")
	}
	union := append(polled, viaChan...)
	if len(union) != res.Stats.Digests {
		t.Fatalf("Poll %d + channel %d = %d digests, Stats counted %d",
			len(polled), len(viaChan), len(union), res.Stats.Digests)
	}
	mustMatchMultiset(t, "poll+channel", union, want.Digests)
	mustMatchMultiset(t, "result", res.Digests, want.Digests)
}
