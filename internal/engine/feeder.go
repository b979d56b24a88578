package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"splidt/internal/pkt"
)

// ErrFeederClosed reports a Feed on a Feeder after its Close (Session.Feed
// translates it to ErrSessionClosed for the default feeder, whose lifetime
// is the session's).
var ErrFeederClosed = errors.New("engine: feeder closed")

// Feeder is one producer's private handle into a session's dispatch stage.
// Where Session.Feed serialises every caller on one lock, each Feeder owns
// its own per-shard staging bursts and its own per-shard free rings, so M
// feeders dispatch into the shard workers' MPSC input rings with no shared
// lock anywhere on the hot path — the per-producer staging of a DPDK-style
// forwarder's input threads.
//
// A Feeder is meant to be driven by a single goroutine: its methods
// serialise on a private mutex, uncontended in that use, so the lock's job
// is to make Feeder-close and Session.Close interleavings safe. (The one
// deliberate exception is the session's default feeder, whose lock is what
// serialises concurrent Session.Feed callers — that contention is the
// pre-feeder contract, not a fast path.) Packet-disjointness is the caller's
// contract: per-flow packet order is preserved only when all packets of a
// flow go through the same Feeder (trace.Partition splits a workload that
// way); flows split across feeders may reorder, and the digest multiset
// guarantee then degrades the same way any cross-producer reordering would.
//
// Close flushes the feeder's staged bursts to the workers and retires the
// handle. Session.Close force-closes any feeder still open, so abandoning a
// Feeder leaks nothing.
type Feeder struct {
	s *Session

	mu     sync.Mutex // private to this feeder; see the concurrency note above
	closed bool       // under mu: no further Feeds accepted

	cur  []*burst    // per-shard staged partial burst
	free []*spscRing // per-shard private free ring (worker → this feeder)

	// rot rotates the starting shard of each staged-burst flush so one
	// shard with a persistently full ring cannot starve the others' staged
	// bursts behind a fixed retry order.
	rot int
}

// NewFeeder returns a new producer handle with its own burst pool: Queue+2
// bursts per shard (enough to fill a shard's input ring single-handedly,
// plus one in flight at the worker and one staging), recycled through the
// feeder's private SPSC free rings. Construction is the only allocation a
// feeder ever performs; the Feed hot path is allocation-free. It fails
// after the session has closed.
func (s *Session) NewFeeder() (*Feeder, error) {
	return s.newFeeder(nil)
}

// newFeeder registers a feeder over the given burst pool, building a fresh
// one when free is nil. The seal check runs before the pool is built, so a
// NewFeeder racing Session.Close never allocates for nothing; holding
// feederMu across construction keeps check-and-register atomic (shutdown
// contends on it only once, at seal time).
func (s *Session) newFeeder(free []*spscRing) (*Feeder, error) {
	s.feederMu.Lock()
	defer s.feederMu.Unlock()
	if s.feedersSealed {
		return nil, ErrSessionClosed
	}
	if free == nil {
		free = newBurstPool(len(s.e.shards), s.e.cfg)
	}
	f := &Feeder{
		s:    s,
		cur:  make([]*burst, len(s.e.shards)),
		free: free,
	}
	s.feeders[f] = struct{}{}
	return f, nil
}

// newBurstPool builds one free ring per shard, each pre-filled with
// Queue+2 bursts that recycle home to it.
func newBurstPool(nShards int, cfg Config) []*spscRing {
	free := make([]*spscRing, nShards)
	pool := cfg.Queue + 2
	for i := range free {
		r := newRing(pool)
		for j := 0; j < pool; j++ {
			r.push(&burst{pkts: make([]pkt.Packet, 0, cfg.Burst), home: r})
		}
		free[i] = r
	}
	return free
}

// Feed dispatches packets to the shard workers through this feeder's
// private staging and returns how many it accepted — the same non-blocking
// contract as Session.Feed (stop at the first unplaceable packet, return
// the count with ErrBackpressure, caller retries with pkts[n:]). Packets of
// blocked flows count as accepted but are dropped before dispatch. The
// caller keeps ownership of the slice.
//
// Accepted packets are counted locally and published to the session's
// shared Fed counter in one add before every push (and at every return),
// not one atomic add per packet: the counter's cache line is shared by
// every feeder and every Snapshot reader. Publishing before a push keeps
// Fed ≥ processed at every instant, which Lag and the settle loops rely
// on; blocked drops are published after the Fed add, so Fed also never
// trails Dropped.
func (f *Feeder) Feed(pkts []pkt.Packet) (int, error) {
	n, _, err := f.feed(pkts)
	return n, err
}

// feed is Feed that also reports, with ErrBackpressure, the shard that
// refused the packet it stopped at — what FeedAll waits on.
func (f *Feeder) feed(pkts []pkt.Packet) (int, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, 0, ErrFeederClosed
	}
	s := f.s
	n := len(s.e.shards)
	burstCap := s.e.cfg.Burst
	var fed, dropped int64
	publish := func() {
		s.fed.Add(fed)
		if dropped != 0 {
			s.dropped.Add(dropped)
		}
		fed, dropped = 0, 0
	}
	for i := range pkts {
		p := &pkts[i]
		if s.filter.blocked(p.Key) {
			dropped++
			fed++
			continue
		}
		si := p.Shard(n)
		cur := f.cur[si]
		if cur != nil && len(cur.pkts) == burstCap {
			if s.latHists != nil {
				cur.fedAt = time.Now()
			}
			publish()
			if !f.tryPush(si, cur) {
				s.backpressure.Add(1)
				f.flushStaged()
				return i, si, ErrBackpressure
			}
			f.cur[si] = nil
			cur = nil
		}
		if cur == nil {
			b, ok := f.free[si].tryPop()
			if !ok {
				publish()
				s.backpressure.Add(1)
				f.flushStaged()
				return i, si, ErrBackpressure
			}
			f.cur[si] = b
			cur = b
		}
		cur.pkts = append(cur.pkts, *p)
		fed++
	}
	publish()
	f.flushStaged()
	return len(pkts), 0, nil
}

// flushStaged hands partial bursts to the workers, best-effort, so a
// pausing (or shedding) producer does not strand already-accepted packets
// until its next Feed. Runs on every Feed exit — backpressure returns
// included — with the feeder locked; a full ring just leaves that burst
// staged for the next call or Close. The walk starts at a rotating shard:
// with a fixed order, a shard whose ring stays full would be retried first
// on every flush while later shards' staged bursts wait behind it.
func (f *Feeder) flushStaged() {
	n := len(f.cur)
	start := f.rot
	f.rot++
	if f.rot >= n {
		f.rot = 0
	}
	var now time.Time // one clock read per flush, only when latency is on
	if f.s.latHists != nil {
		now = time.Now()
	}
	for k := 0; k < n; k++ {
		i := start + k
		if i >= n {
			i -= n
		}
		if b := f.cur[i]; b != nil && len(b.pkts) > 0 {
			b.fedAt = now
			if f.tryPush(i, b) {
				f.cur[i] = nil
			}
		}
	}
}

// tryPush is the feeder's one push point into a shard's input ring, with
// the session's fault-injection refuse hook applied first (nil in
// production — one predictable branch).
func (f *Feeder) tryPush(si int, b *burst) bool {
	if h := f.s.hooks; h != nil && h.PushRefuse != nil && h.PushRefuse(si) {
		return false
	}
	return f.s.e.shards[si].in.tryPush(b)
}

// pushDeadline delivers b to shard si's ring, giving up at the deadline: a
// worker stuck mid-burst would otherwise wedge the closing caller forever.
// On expiry the burst is abandoned — its packets are counted as discarded
// staged work and the burst leaves the pool (acceptable: the session is
// being declared wedged, and the pool dies with it). Injected overflow
// hooks are bypassed: shutdown flushes must not be refusable. Quarantined
// shards keep draining their rings, so only a truly stuck worker ever
// expires this.
func (f *Feeder) pushDeadline(si int, b *burst, deadline time.Time) {
	in := f.s.e.shards[si].in
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	for !in.tryPush(b) {
		if ctx.Err() != nil {
			f.s.discarded.Add(int64(len(b.pkts)))
			return
		}
		in.awaitRecycle(nil, ctx.Done())
	}
}

// FeedAll feeds the whole slice, waiting out backpressure until every
// packet is accepted and handed to the workers — unlike bare Feed it does
// not leave a trailing partial burst staged. A refused Feed parks the
// caller until the refusing shard's worker recycles a burst (or the session
// closes) rather than retrying on a poll. Any error other than
// ErrBackpressure aborts the loop and is returned; a concurrent close takes
// over delivery of anything still staged, and FeedAll then returns nil for
// the already-accepted packets exactly as Session.FeedAll always has.
func (f *Feeder) FeedAll(pkts []pkt.Packet) error {
	off := 0
	for off < len(pkts) {
		n, si, err := f.feed(pkts[off:])
		off += n
		switch err {
		case nil:
		case ErrBackpressure:
			f.await(si, f.free[si])
		default:
			return err
		}
	}
	// Guaranteed trailing flush: Feed's end-of-call flush is best-effort,
	// so wait out full rings until no shard holds a staged non-empty burst.
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return nil
		}
		f.flushStaged()
		staged := -1
		for i, b := range f.cur {
			if b != nil && len(b.pkts) > 0 {
				staged = i
				break
			}
		}
		f.mu.Unlock()
		if staged < 0 {
			return nil
		}
		f.await(staged, nil)
	}
}

// await blocks until shard si's worker recycles a burst or the session
// closes, if that shard is still what holds the feeder up: its input ring
// is full, or free (this feeder's free ring for it; nil to ignore) is
// empty. A refusal with neither, which only an injected PushRefuse makes,
// yields instead. Called without f.mu held, so shutdown can seal the
// feeder meanwhile.
func (f *Feeder) await(si int, free *spscRing) {
	if !f.s.e.shards[si].in.awaitRecycle(free, f.s.watchStop) {
		runtime.Gosched()
	}
}

// FeedSource drains a Source through the feeder in staged chunks, waiting
// out backpressure.
func (f *Feeder) FeedSource(src Source) error {
	chunk := make([]pkt.Packet, 0, runChunk)
	for {
		p, ok := src.Next()
		if ok {
			chunk = append(chunk, p)
		}
		if len(chunk) == cap(chunk) || (!ok && len(chunk) > 0) {
			if err := f.FeedAll(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
		if !ok {
			return nil
		}
	}
}

// Close flushes the feeder's staged bursts to the workers and retires the
// handle: subsequent Feeds fail with ErrFeederClosed. The flush may wait on
// busy workers but cannot wedge: the session's shutdown acquires this
// feeder's lock before it stops the workers, so they are live for as long
// as Close needs them, and even a quarantined shard keeps draining its
// ring — only a worker stuck mid-burst leaves a ring full, and that wait
// is bounded by the engine's ShutdownTimeout (abandoned packets are
// counted in Snapshot.DiscardedStaged). Close is idempotent and safe
// concurrently with Session.Close (whichever wins flushes; the other
// no-ops).
func (f *Feeder) Close() {
	f.closeForShutdown(true, time.Now().Add(f.s.e.cfg.ShutdownTimeout))
	f.s.feederMu.Lock()
	delete(f.s.feeders, f)
	f.s.feederMu.Unlock()
}

// closeForShutdown seals the feeder and either flushes (Feeder.Close and
// graceful Session.Close) or discards (context abort) whatever is staged,
// bounded by the deadline. Caller must not hold the feeder's lock. The
// burst still travels through the in ring even when discarded: the shard
// worker is the home ring's only producer, and it recycles this burst like
// any other (a zero-length burst just recycles).
func (f *Feeder) closeForShutdown(flush bool, deadline time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for i, b := range f.cur {
		if b != nil {
			if !flush {
				b.pkts = b.pkts[:0]
			}
			if f.s.latHists != nil {
				b.fedAt = time.Now()
			}
			f.pushDeadline(i, b, deadline)
			f.cur[i] = nil
		}
	}
}
