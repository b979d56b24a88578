package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/flow"
	"splidt/internal/metrics"
	"splidt/internal/pkt"
)

// Feed and session lifecycle errors.
var (
	// ErrBackpressure reports that a shard queue is full: the workers are
	// behind the producer. Feed returns it together with the number of
	// packets it did accept; the caller retries with the remainder (or
	// sheds load) — the producer side never blocks silently.
	ErrBackpressure = errors.New("engine: backpressure: shard queue full")
	// ErrSessionClosed reports a Feed after Close (or after the session's
	// context was cancelled).
	ErrSessionClosed = errors.New("engine: session closed")
	// ErrSessionActive reports a Start while another session is running.
	ErrSessionActive = errors.New("engine: a session is already active")
)

// Snapshot is a live view of a running (or closed) session, assembled from
// the workers' per-burst published stats — reading one never touches state
// a worker owns, so it is safe at any time, including mid-run under -race.
type Snapshot struct {
	// Stats is the merged per-shard counter deltas since Start. It trails
	// live state by at most one in-flight burst per shard. Stats.Evictions
	// counts register slots reclaimed this session by idle expiry and
	// Block/Evict-initiated eviction.
	Stats dataplane.Stats
	// PerShard is the per-shard split of Stats.
	PerShard []dataplane.Stats
	// ActiveFlows is the number of occupied register slots across shards.
	ActiveFlows int
	// Fed counts packets accepted by Feed (including ones later dropped by
	// the block filter; excluding ones refused with ErrBackpressure).
	Fed int64
	// Dropped counts packets discarded because their flow was blocked —
	// at the dispatch stage, or at a worker for packets that were already
	// queued when the verdict landed.
	Dropped int64
	// Backpressure counts Feed calls that returned ErrBackpressure,
	// including those FeedAll makes. FeedAll retries only after the
	// refusing shard wakes it, so under FeedAll this counts waits, not
	// polls.
	Backpressure int64
	// BlockedFlows is the current size of the drop filter.
	BlockedFlows int
	// StashedFlows is the number of flows currently parked in the flow
	// tables' stashes across shards (cuckoo scheme only; 0 otherwise). A
	// persistently non-zero value under churn means the table is operating
	// in its overflow regime — the occupancy headroom gauge the load
	// harness watches during collision storms.
	StashedFlows int
	// QuarantineDropped counts packets drained to the drop counter by
	// quarantined shards (worker-panic containment): the remainder of each
	// panicking burst plus every packet the dead shard's ring drained
	// afterwards. Zero in healthy sessions.
	QuarantineDropped int64
	// DiscardedStaged counts packets in staged bursts that a
	// deadline-bounded shutdown flush abandoned because a shard's ring
	// stayed full past the shutdown deadline (stuck worker). Zero in
	// healthy sessions — even quarantined shards keep draining their rings.
	DiscardedStaged int64
}

// Session is a long-lived streaming run of an Engine: packets go in through
// Feed, digests come out through Digests or Poll while traffic is still
// flowing, Snapshot observes live merged stats, Block installs mid-run drop
// verdicts, and Close drains everything and returns the deterministic final
// Result.
//
// Concurrency: Feed may be called from multiple goroutines (calls
// serialise on the session's default Feeder), and every other method is
// safe concurrently with Feed and with each other. Producers that want
// dispatch parallelism instead of serialisation take a private handle each
// via NewFeeder — M feeders push into the shard workers' multi-producer
// rings with no shared lock on the hot path (Feed/FeedAll/FeedSource are
// thin wrappers over the default feeder, so one feeder behaves exactly as
// the session always has). Shard workers append each burst's digests to
// the session's digest log; Digests and Poll both take from that log
// through one delivery cursor, so each digest is delivered exactly once
// through one or the other, even when both drain at once (interleaving
// order across the two is then unspecified). Close's Result carries the
// complete ordered stream.
type Session struct {
	e     *Engine
	start time.Time

	lifeMu sync.Mutex // guards closed (session lifecycle, not the feed path)
	closed bool       // under lifeMu: session shut down, Evict is a no-op

	// Feeder registry: shutdown seals it, then force-closes every feeder
	// still open so staged bursts are delivered (or discarded, on abort)
	// exactly once.
	feederMu      sync.Mutex
	feeders       map[*Feeder]struct{}
	feedersSealed bool
	def           *Feeder // backs Session.Feed/FeedAll/FeedSource

	fed          atomic.Int64
	dropped      atomic.Int64
	backpressure atomic.Int64
	discarded    atomic.Int64 // staged packets abandoned by a deadline-bounded flush

	// fault is the session's first recorded cause error (worker panic, ctx
	// cancellation, shutdown timeout) — Session.Err. First fault wins.
	faultMu sync.Mutex
	fault   error

	// redeployMu serialises Session.Redeploy callers (epoch handoffs must
	// not interleave).
	redeployMu sync.Mutex

	// hooks are the fault-injection seams (WithTestHooks); nil in
	// production.
	hooks *TestHooks

	filter dropFilter

	out chan dataplane.Digest // pump → consumer (Digests)

	mu        sync.Mutex         // guards all/delivered/logClosed
	cond      *sync.Cond         // pump wakeup: workers signal after appending
	all       []dataplane.Digest // the digest log: undelivered + (retain mode) delivered digests, in append order
	delivered int                // all[:delivered] has gone out via Poll/Digests
	logClosed bool               // every worker has exited: all is complete
	pumpOnce  sync.Once
	bounded   bool // drop digests once delivered (WithBoundedDigests)

	latency  bool            // record digest latency (WithDigestLatency)
	latHists []*metrics.Hist // per-shard digest-latency hists; nil when off

	prev []dataplane.Stats // per-shard counters at Start, owned by this session

	wg        sync.WaitGroup // shard workers
	watchStop chan struct{}  // releases the context watcher

	closeOnce sync.Once
	result    *Result
	resErr    error
}

// SessionOption configures a Session at Start.
type SessionOption func(*Session)

// WithBoundedDigests switches the session to drop-after-delivery digest
// retention: a digest handed out through Digests() or Poll is released
// rather than kept for Close, so a long-lived session's memory is bounded
// by the undelivered backlog instead of growing with every classification.
// The trade-off: Close's Result.Digests then carries only the digests not
// yet delivered at Close time (still deterministically ordered) — sessions
// that need the complete stream in the final Result use the default retain
// mode.
func WithBoundedDigests() SessionOption {
	return func(s *Session) { s.bounded = true }
}

// WithDigestLatency turns on digest-latency attribution: feeders stamp each
// burst with its wall-clock handoff time, shard workers record handoff →
// digest-emission latency into per-shard histograms, and DigestLatency()
// exposes the merged distribution (p50/p99/p999) live while the session
// runs. Off by default: the stamped clock read (one per burst) and the
// per-digest record are skipped entirely, so existing sessions pay nothing.
func WithDigestLatency() SessionOption {
	return func(s *Session) { s.latency = true }
}

// Start begins a streaming session: one worker goroutine per shard, each
// appending its digests to the session's log at every burst end, plus a
// health watchdog and a context watcher. At most one session runs per
// engine at a time. Cancelling ctx aborts the session: staged partial
// bursts are discarded (already-queued bursts still drain), Feed starts
// failing, and Close reports the context error. Close alone performs a
// fully graceful drain.
func (e *Engine) Start(ctx context.Context, opts ...SessionOption) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !e.active.CompareAndSwap(false, true) {
		return nil, ErrSessionActive
	}
	s := &Session{
		e:         e,
		start:     time.Now(),
		feeders:   make(map[*Feeder]struct{}),
		out:       make(chan dataplane.Digest, digestBuffer),
		watchStop: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.cond = sync.NewCond(&s.mu)
	if s.latency {
		s.latHists = make([]*metrics.Hist, len(e.shards))
		for i := range s.latHists {
			s.latHists[i] = &metrics.Hist{}
		}
	}
	s.prev = make([]dataplane.Stats, len(e.shards))
	for i, sh := range e.shards {
		sh.done.Store(false)
		s.prev[i] = sh.pl.Stats()
		// Fresh per-session latency hist (nil when latency is off — the
		// worker's nil check is what keeps the default path free).
		sh.latHist = nil
		if s.latHists != nil {
			sh.latHist = s.latHists[i]
		}
		// Evictions enqueued after the previous session's workers exited
		// belong to that session's filter state; drop them.
		sh.evictMu.Lock()
		sh.evictQ = sh.evictQ[:0]
		sh.evictN.Store(0)
		sh.evictMu.Unlock()
		// This session's drop filter starts empty at epoch zero; reset the
		// worker's cached per-burst view to match.
		sh.filterEpoch = 0
		sh.filterCheck = false
		// Health is per session: a quarantine does not outlive the session
		// whose worker panicked (the replica restarts from whatever state
		// the panic left, like a crashed-and-restarted pipe).
		sh.health.Store(int32(ShardRunning))
		sh.quarDrops.Store(0)
		sh.progress.Store(0)
		sh.lastTS.Store(int64(sh.pl.Clock()))
		// A deployment published by a Redeploy that raced the previous
		// session's shutdown may still be pending; adopt it here, before
		// the worker starts, so shards never run mixed trees across a
		// session boundary.
		if dep := sh.pendingDep.Swap(nil); dep != nil {
			sh.pl.Redeploy(dep.model, dep.compiled, dep.epoch)
			sh.epoch.Store(dep.epoch)
		}
		sh.pub.Store(&shardPub{
			stats:   s.prev[i],
			active:  sh.pl.ActiveFlows(),
			stashed: sh.pl.TableStats().Stashed,
		})
	}
	if e.defFree == nil {
		e.defFree = newBurstPool(len(e.shards), e.cfg)
	}
	var err error
	if s.def, err = s.newFeeder(e.defFree); err != nil {
		e.active.Store(false)
		return nil, err
	}
	s.wg.Add(len(e.shards))
	for i, sh := range e.shards {
		go sh.work(s, i)
	}
	go s.watchdog(e.cfg.WatchdogInterval)
	go func() {
		select {
		case <-ctx.Done():
			s.shutdown(false, ctx.Err())
		case <-s.watchStop:
		}
	}()
	return s, nil
}

// Feed dispatches packets to the shard workers through the session's
// default Feeder and returns how many it accepted. It never blocks: when a
// shard's queue is full (the workers are behind) it stops at the first
// unplaceable packet and returns the count consumed so far with
// ErrBackpressure — retry with pkts[n:]. Accepted packets are fully handed
// off (partial bursts are flushed best-effort at the end of each call and
// unconditionally at Close), and the caller keeps ownership of the slice.
// Packets of blocked flows count as accepted but are dropped before
// dispatch. Concurrent callers serialise; producers that want real
// dispatch parallelism take a private Feeder each (NewFeeder). Each
// packet's ShardHash must be 0 or its key's own ShardHash(): the flow
// table indexes by it (see pkt.Packet.ShardHash).
func (s *Session) Feed(pkts []pkt.Packet) (int, error) {
	n, err := s.def.Feed(pkts)
	if err == ErrFeederClosed {
		// The default feeder closes only when the session does; surface why
		// (ctx cancellation, worker panic, shutdown timeout) when a cause
		// was recorded.
		err = s.closedErr()
	}
	return n, err
}

// FeedAll feeds the whole slice, waiting out backpressure until every
// packet is accepted and handed to the workers — unlike bare Feed it does
// not leave a trailing partial burst staged, so "FeedAll returned" means
// the workers will process every packet without further calls. While a
// shard holds it up, FeedAll sleeps until that shard's worker returns a
// burst (or the session closes) instead of polling. Any error other than
// ErrBackpressure aborts the loop and is returned. Callers that would
// rather shed load than wait use Feed directly.
func (s *Session) FeedAll(pkts []pkt.Packet) error {
	err := s.def.FeedAll(pkts)
	if err == ErrFeederClosed {
		err = s.closedErr()
	}
	return err
}

// FeedSource drains a Source through the session in staged chunks,
// waiting out backpressure — the one home for the pull-stage-FeedAll
// loop Run, the CLI, and the examples all need.
func (s *Session) FeedSource(src Source) error {
	err := s.def.FeedSource(src)
	if err == ErrFeederClosed {
		err = s.closedErr()
	}
	return err
}

// closedErr is the error the Feed family returns once the session has
// closed: bare ErrSessionClosed after a graceful Close, or ErrSessionClosed
// wrapping the recorded cause (Session.Err) after a fault — errors.Is
// matches both the sentinel and the cause, and errors.As recovers a
// ShardPanicError.
func (s *Session) closedErr() error {
	if cause := s.Err(); cause != nil {
		return fmt.Errorf("%w: %w", ErrSessionClosed, cause)
	}
	return ErrSessionClosed
}

// Digests returns the live merged digest stream. The first call starts a
// pump goroutine that forwards digests from the log in append order
// (per-flow order preserved) and closes the channel after the session ends
// and every digest has been delivered. The pump takes digests from the
// same delivery cursor as Poll, so the two may drain one session together;
// once Digests has been called, its channel must be drained until close.
func (s *Session) Digests() <-chan dataplane.Digest {
	s.pumpOnce.Do(func() { go s.pump() })
	return s.out
}

// Poll drains up to len(buf) undelivered digests from the log into buf
// without blocking and returns how many it wrote. After Close it keeps
// returning the remaining undelivered tail until the log is empty.
func (s *Session) Poll(buf []dataplane.Digest) int {
	s.mu.Lock()
	n := copy(buf, s.all[s.delivered:])
	s.delivered += n
	s.compactLocked()
	s.mu.Unlock()
	return n
}

// compactLocked releases delivered digests in bounded mode by shifting the
// undelivered tail to the front of the backing array, so memory tracks the
// backlog, not the session's lifetime output. Called with mu held; a no-op
// in retain mode, where s.all must keep the complete stream for Close.
func (s *Session) compactLocked() {
	if !s.bounded || s.delivered == 0 {
		return
	}
	n := copy(s.all, s.all[s.delivered:])
	s.all = s.all[:n]
	s.delivered = 0
}

// Snapshot assembles a live view of the session from the workers' published
// per-burst stats. Safe to call at any time, from any goroutine.
//
//splidt:stats-complete Snapshot
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		PerShard:        make([]dataplane.Stats, len(s.e.shards)),
		Fed:             s.fed.Load(),
		Dropped:         s.dropped.Load(),
		Backpressure:    s.backpressure.Load(),
		BlockedFlows:    s.filter.size(),
		DiscardedStaged: s.discarded.Load(),
	}
	for i, sh := range s.e.shards {
		pub := sh.pub.Load()
		snap.PerShard[i] = subStats(pub.stats, s.prev[i])
		snap.Stats.Add(snap.PerShard[i])
		snap.ActiveFlows += pub.active
		snap.StashedFlows += pub.stashed
		snap.QuarantineDropped += sh.quarDrops.Load()
	}
	return snap
}

// DigestLatency returns the merged feeder-handoff → digest-emission latency
// distribution for sessions started WithDigestLatency, nil otherwise. Safe
// to call live: it merges the per-shard histograms into a fresh snapshot
// (workers keep recording into their own), so successive calls give
// monotonically growing counts and a caller can Sub an earlier snapshot for
// a phase delta.
func (s *Session) DigestLatency() *metrics.Hist {
	if s.latHists == nil {
		return nil
	}
	m := &metrics.Hist{}
	for _, h := range s.latHists {
		m.Merge(h)
	}
	return m
}

// Block installs a drop verdict for the flow (both directions): subsequent
// packets of the flow are discarded at the dispatch stage, before they
// consume a burst slot or pipeline work, and packets already queued in the
// shard ring are discarded by the worker before processing. This is the
// data-plane half of the controller's detect→block loop. Block also evicts
// the flow's register slot (see Evict): once the flow's remaining packets
// are dropped, an early-exited flow's parked slot would never see the
// flow-end packet that frees it, so blocking without evicting leaks a slot
// per blocked flow in a long-lived session. The filter entry is installed
// before the eviction is enqueued, so the freed slot cannot be
// re-activated by in-flight stragglers of the same flow.
func (s *Session) Block(k flow.Key) {
	s.filter.block(k)
	s.Evict(k)
}

// Evict asynchronously reclaims the flow's register slot on its owning
// shard — the controller-initiated arm of flow-table ageing, effective
// even with IdleTimeout unset. The reclaim is handed to the shard's worker
// (the only goroutine that may touch its pipeline) and applied before the
// worker's next burst, or promptly while it idles; it is a no-op if the
// flow does not currently own its slot. Safe from any goroutine. After the
// session has closed, Evict does nothing: the shard mailboxes belong to
// the next session by then, and a stale verdict must not reclaim a live
// flow's slot there.
func (s *Session) Evict(k flow.Key) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed {
		return
	}
	s.e.shards[k.Shard(len(s.e.shards))].evict(k)
}

// Unblock removes a flow's drop verdict.
func (s *Session) Unblock(k flow.Key) { s.filter.unblock(k) }

// Blocked reports whether the flow is currently blocked.
func (s *Session) Blocked(k flow.Key) bool { return s.filter.blocked(k) }

// Close gracefully drains the session: it flushes staged bursts, waits for
// the workers to finish every queued packet, merges the per-shard digest
// streams into one deterministically ordered Result, and releases the
// engine for the next session. Close is idempotent; every call returns the
// same Result. For sessions started WithBoundedDigests, Result.Digests
// holds only the digests not yet delivered through Digests()/Poll.
//
// Close returns the session's recorded cause (Session.Err) as its error:
// nil for a healthy session, the context's error after a cancellation, a
// ShardPanicError after a quarantine — the run's digests and stats are
// still returned either way. Every wait is bounded by the engine's
// ShutdownTimeout: if a worker is stuck past the deadline, Close abandons
// it, returns ErrShutdownTimeout with stats from the workers' last
// published snapshots, and poisons the engine (the stuck worker still owns
// its replica, so no further session may start).
func (s *Session) Close() (*Result, error) {
	s.shutdown(true, nil)
	return s.result, s.resErr
}

// shutdown runs the started→fed→drained state machine's final transition
// exactly once. flush selects graceful drain (Close) versus abort (context
// cancellation).
func (s *Session) shutdown(flush bool, cause error) {
	s.closeOnce.Do(func() {
		// Record the cause first so concurrent Feed callers fail with it
		// from the first moment the session reads as closed.
		s.recordFault(cause)
		s.lifeMu.Lock()
		s.closed = true
		s.lifeMu.Unlock()

		// Every teardown wait below shares one deadline: shutdown must
		// return even when a worker is stuck mid-burst.
		deadline := time.Now().Add(s.e.cfg.ShutdownTimeout)

		// Seal the registry (no new feeders), then force-close every feeder
		// still open: each seal acquires that feeder's private lock, so no
		// push can be in flight once the loop completes, and every staged
		// burst has been delivered (flush) or discarded (abort). Feeders
		// closing themselves concurrently just win the race and no-op here.
		s.feederMu.Lock()
		s.feedersSealed = true
		open := make([]*Feeder, 0, len(s.feeders))
		for f := range s.feeders {
			open = append(open, f)
		}
		s.feederMu.Unlock()
		for _, f := range open {
			f.closeForShutdown(flush, deadline)
		}
		// done is set after the final push, so a worker that observes it
		// and then finds its ring empty has seen everything.
		for _, sh := range s.e.shards {
			sh.done.Store(true)
			sh.in.wakeConsumer()
		}

		workersDone := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(workersDone)
		}()
		timedOut := false
		select {
		case <-workersDone:
			// All workers exited (quarantined ones drain their rings and
			// exit too): nothing appends to the log any more, so mark it
			// closed and let the pump close its channel after the tail.
			s.mu.Lock()
			s.logClosed = true
			s.mu.Unlock()
			s.cond.Broadcast()
		case <-time.After(time.Until(deadline)):
			// A worker is stuck. Abandon it: the straggler may still
			// append to the log if it ever wakes, so the log stays open
			// (a pump never closes its channel) and the engine is
			// poisoned — active stays set and no further session can
			// start.
			timedOut = true
			s.recordFault(ErrShutdownTimeout)
		}
		close(s.watchStop)

		res := &Result{PerShard: make([]dataplane.Stats, len(s.e.shards))}
		for i, sh := range s.e.shards {
			if timedOut {
				// The stuck worker still owns its pipeline; read the last
				// published snapshot instead of racing it.
				res.PerShard[i] = subStats(sh.pub.Load().stats, s.prev[i])
			} else {
				res.PerShard[i] = subStats(sh.pl.Stats(), s.prev[i])
			}
			res.Stats.Add(res.PerShard[i])
		}
		// Sort a copy: s.all stays in append order so Poll/Digests can
		// still deliver the undrained tail after Close. In bounded mode
		// the Result carries exactly the undelivered backlog — s.all may
		// still hold a delivered-but-uncompacted prefix (the pump compacts
		// in batches), so slice past the delivered cursor. The pump may be
		// mutating concurrently — snapshot under mu.
		s.mu.Lock()
		tail := s.all
		if s.bounded {
			tail = s.all[s.delivered:]
		}
		res.Digests = append([]dataplane.Digest(nil), tail...)
		s.mu.Unlock()
		sortDigests(res.Digests)
		res.Dropped = s.dropped.Load()
		res.Throughput = metrics.Throughput{
			Packets:        res.Stats.Packets,
			Digests:        res.Stats.Digests,
			Recirculations: res.Stats.ControlPackets,
			Elapsed:        time.Since(s.start),
		}
		s.result = res
		// The session's error is its recorded cause: the shutdown trigger
		// (ctx cancellation) if there was one, else the first internal
		// fault (worker panic, shutdown timeout), else nil.
		s.resErr = s.Err()
		if !timedOut {
			s.e.active.Store(false)
		}
	})
}

// flushDigests is a worker's end-of-burst hand-off: it appends the burst's
// digests to the session's log in one locked step and wakes the pump. The
// SinkDigest hook runs first, outside mu, so an injected stall delays only
// this worker. The scratch is emptied before anything runs, so the panic
// fence never appends a digest twice.
func (s *shardState) flushDigests(sess *Session) {
	ds := s.digests
	if len(ds) == 0 {
		return
	}
	s.digests = ds[:0]
	if h := sess.hooks; h != nil && h.SinkDigest != nil {
		for i := range ds {
			h.SinkDigest(&ds[i])
		}
	}
	sess.mu.Lock()
	sess.all = append(sess.all, ds...)
	sess.mu.Unlock()
	sess.cond.Signal()
}

// pump forwards undelivered digests to the out channel in order; Digests
// starts it. It keeps delivering after shutdown until the backlog is
// empty, then closes the channel — so a consumer ranging over Digests()
// sees, exactly once, every digest that Poll did not take.
func (s *Session) pump() {
	for {
		s.mu.Lock()
		for s.delivered == len(s.all) && !s.logClosed {
			s.cond.Wait()
		}
		if s.delivered == len(s.all) {
			s.mu.Unlock()
			close(s.out)
			return
		}
		d := s.all[s.delivered]
		s.delivered++
		// Compact periodically, not per digest: the copy is O(backlog), so
		// a threshold keeps pump delivery amortised O(1) while still
		// bounding memory in drop-after-delivery mode.
		if s.delivered >= pumpCompactThreshold || s.delivered == len(s.all) {
			s.compactLocked()
		}
		s.mu.Unlock()
		s.out <- d
	}
}

// pumpCompactThreshold is how many delivered digests the pump lets
// accumulate before compacting a bounded session's buffer.
const pumpCompactThreshold = 256

// digestBuffer is the capacity of the channel Digests returns.
const digestBuffer = 256

// dropFilter is the dispatch-stage blocklist: a direction-symmetric flow
// set with an atomic emptiness fast path, so an unblocked workload pays one
// atomic load per packet and nothing else. ep advances on every change to
// the set, letting shard workers amortise even that load to once per burst:
// a worker caches (epoch, non-empty) and re-checks packets individually
// only while its cached view says the filter has entries — see work.
type dropFilter struct {
	n   atomic.Int64
	ep  atomic.Uint64
	mu  sync.RWMutex
	set map[flow.Key]struct{}
}

func (f *dropFilter) block(k flow.Key) {
	c := k.Canonical()
	f.mu.Lock()
	if f.set == nil {
		f.set = make(map[flow.Key]struct{})
	}
	if _, ok := f.set[c]; !ok {
		f.set[c] = struct{}{}
		f.n.Add(1)
		f.ep.Add(1)
	}
	f.mu.Unlock()
}

func (f *dropFilter) unblock(k flow.Key) {
	c := k.Canonical()
	f.mu.Lock()
	if _, ok := f.set[c]; ok {
		delete(f.set, c)
		f.n.Add(-1)
		f.ep.Add(1)
	}
	f.mu.Unlock()
}

func (f *dropFilter) blocked(k flow.Key) bool {
	if f.n.Load() == 0 {
		return false
	}
	c := k.Canonical()
	f.mu.RLock()
	_, ok := f.set[c]
	f.mu.RUnlock()
	return ok
}

func (f *dropFilter) size() int { return int(f.n.Load()) }
