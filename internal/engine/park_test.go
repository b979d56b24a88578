package engine

// The parked hand-off from the session's side: an idle worker sleeps until
// something gives it work, and a feeder the workers hold up sleeps until a
// burst comes home or the session gives up on it. Each test pins one way a
// lost or missing wake would show: a control call that never lands, a
// FeedAll that never returns, a goroutine that never exits.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"splidt/internal/trace"
)

// allParked reports whether every shard worker is asleep on its wake
// channel.
func allParked(e *Engine) bool {
	for _, sh := range e.shards {
		if !sh.in.parked.Load() {
			return false
		}
	}
	return true
}

// TestParkedWorkerWakesForControl: with no traffic flowing and every worker
// parked, Evict frees the flow's slot, Redeploy returns, and Close returns,
// each within a second against a one-minute ShutdownTimeout. Only the wake
// that each call sends can get a sleeping worker to act on it; without it
// the eviction stays queued and Redeploy and Close run into the timeout.
func TestParkedWorkerWakesForControl(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 16, Queue: 4, ShutdownTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The first packet of one flow takes a register slot and keeps it: the
	// deployment has no idle timeout.
	first := trace.Interleave(trace.Generate(trace.D3, 1, eqSeed), eqSpacing)[:1]
	if err := s.FeedAll(first); err != nil {
		t.Fatal(err)
	}
	settleSession(t, s)
	if n := s.Snapshot().ActiveFlows; n != 1 {
		t.Fatalf("ActiveFlows = %d after one packet, want 1", n)
	}

	waitFor(t, func() bool { return allParked(e) })
	begin := time.Now()
	s.Evict(first[0].Key)
	waitFor(t, func() bool { return s.Snapshot().ActiveFlows == 0 })
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("Evict on a parked worker took %v", took)
	}

	waitFor(t, func() bool { return allParked(e) })
	begin = time.Now()
	epoch, err := s.Redeploy(cfg.Model, cfg.Compiled)
	if err != nil {
		t.Fatalf("Redeploy on parked workers: %v", err)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("Redeploy on parked workers took %v", took)
	}
	for i, sh := range s.Health().Shards {
		if sh.Epoch != epoch {
			t.Fatalf("shard %d on epoch %d after Redeploy returned %d", i, sh.Epoch, epoch)
		}
	}

	waitFor(t, func() bool { return allParked(e) })
	begin = time.Now()
	if _, err := s.Close(); err != nil {
		t.Fatalf("Close on parked workers: %v", err)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("Close on parked workers took %v", took)
	}
}

// TestFeedAllWakesOnShutdownTimeout: a FeedAll parked against a shard whose
// worker never comes back still returns once Close gives up on that worker
// at ShutdownTimeout, with the closed-session error wrapping the timeout.
func TestFeedAllWakesOnShutdownTimeout(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 16, Queue: 2,
		ShutdownTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	e.shards[0].hold = hold
	t.Cleanup(func() { close(hold) }) // let the held worker finish after the test
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	fed := make(chan error, 1)
	go func() { fed <- s.FeedAll(pkts) }()
	waitFor(t, func() bool { return e.shards[0].in.waiters.Load() > 0 })

	if _, err := s.Close(); !errors.Is(err, ErrShutdownTimeout) {
		t.Fatalf("Close = %v, want ErrShutdownTimeout", err)
	}
	select {
	case err := <-fed:
		if !errors.Is(err, ErrSessionClosed) || !errors.Is(err, ErrShutdownTimeout) {
			t.Fatalf("FeedAll = %v, want ErrSessionClosed wrapping ErrShutdownTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FeedAll still blocked 5s after Close gave up on the held shard")
	}
}

// TestParkedSessionGoroutinesExit: a session whose workers spent their idle
// time parked leaves no goroutine behind — workers, watchdog, context
// watcher and digest pump all exit by the time Close has returned and the
// digest channel has drained.
func TestParkedSessionGoroutinesExit(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e := mustEngine(t, cfg, 4)
	before := runtime.NumGoroutine()
	s, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	digests := s.Digests()
	drained := make(chan int, 1)
	go func() {
		n := 0
		for range digests {
			n++
		}
		drained <- n
	}()
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return allParked(e) })
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := <-drained; n != len(res.Digests) {
		t.Fatalf("digest channel delivered %d, Close reports %d", n, len(res.Digests))
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
