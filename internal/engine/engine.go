// Package engine is the sharded multi-worker execution layer of the SpliDT
// reproduction: it drives N independent dataplane.Pipeline replicas at once,
// the software analogue of a multi-pipe switch ASIC (or an RSS-sharded
// software dataplane à la ndn-dpdk's forwarder).
//
// Architecture: packets enter through a Session (Engine.Start), via one or
// more producer handles (Session.NewFeeder; Session.Feed wraps a default
// one). Each feeder assigns each packet to a shard by its precomputed
// direction-symmetric dispatch hash — so every packet of a flow (and hence
// all of its register state and its digest) lives on exactly one shard —
// and accumulates them into fixed-size bursts in private per-shard staging.
// Bursts move to shard workers through bounded multi-producer
// single-consumer rings (CAS-reserved slots, the rte_ring MP shape);
// drained bursts recycle back through the owning feeder's private SPSC free
// ring, so the steady-state path allocates nothing and concurrent producers
// share no lock. Each worker owns one pipeline replica and processes bursts
// in arrival order, which — with each flow confined to one feeder —
// preserves per-flow packet order end to end. Each worker collects a
// burst's digests in a private scratch slice and, at the burst's end,
// appends them to the session's digest log in one locked step, so a
// controller can consume them live while traffic is still moving
// (Session.Digests / Session.Poll) and push ActionBlock verdicts back into
// the dispatch stage's drop filter (Session.Block) mid-run. Blocking also
// evicts the flow's register slot via a per-shard eviction mailbox, and
// workers advance the dataplane's flow-table expiry wheel once per burst
// from a monotone packet-time clock — so long-lived sessions reclaim slots
// of blocked and dead flows instead of leaking them (Stats.Evictions).
//
// Nothing at the feeder↔worker hand-off polls. A worker that finds its ring
// empty raises the ring's parked flag, re-checks for work, and sleeps on a
// one-token wake channel; whatever gives it work — a push into the ring, an
// eviction, a Redeploy, shutdown — publishes that work first and then sends
// the token if the flag is up. A FeedAll refused because a shard's ring is
// full, or because its own free ring for that shard is empty, sleeps the
// same way until that shard's worker returns a burst home (or the session
// closes). Snapshot.Backpressure still counts every refused Feed; FeedAll
// simply retries only after a wake. Bare Feed never blocks.
//
// Engine.Run remains as a thin batch wrapper over Start/Feed/Close: it
// drains a Source through a session and returns the merged Result, with a
// digest stream multiset-identical to what the streaming path emits.
//
// Correctness contract: because flows never cross shards and per-flow order
// is preserved, an engine run is digest-equivalent to feeding the same
// workload through one pipeline, as long as register-slot collisions do not
// couple flows that land on different shards (collision-free operation is
// the regime the equivalence tests pin down; Stats.Collisions reports it).
// Close returns digests merged into a single deterministic stream ordered
// by classification time, and per-shard Stats sum into the totals a single
// pipeline would have counted.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/flow"
	"splidt/internal/metrics"
	"splidt/internal/pkt"
	"splidt/internal/telemetry/flight"
)

// Source yields packets in global arrival order. trace.Stream implements it
// lazily; SliceSource adapts a pre-materialised sequence.
type Source interface {
	Next() (pkt.Packet, bool)
}

// SliceSource is a Source over an in-memory packet sequence (benchmarks use
// it to keep generation cost out of the measured path).
type SliceSource struct {
	Pkts []pkt.Packet
	pos  int
}

// Next returns the next packet until the slice is exhausted.
func (s *SliceSource) Next() (pkt.Packet, bool) {
	if s.pos >= len(s.Pkts) {
		return pkt.Packet{}, false
	}
	p := s.Pkts[s.pos]
	s.pos++
	return p, true
}

// ShiftSource wraps a Source, offsetting every packet timestamp by a fixed
// Offset — how a driver replays one trace as successive later waves.
// Flow-table expiry runs on packet time, so a wave re-fed with its
// original timestamps would leave the monotone expiry clock frozen at the
// previous wave's end and expiry inert; shifting each wave past the
// last keeps packet time advancing the way real repeat traffic would.
// Max reports the highest shifted timestamp yielded so far — after a wave
// drains, it is the natural Offset for the next one.
type ShiftSource struct {
	Src    Source
	Offset time.Duration
	max    time.Duration
}

// Next yields the next packet with its timestamp shifted.
func (s *ShiftSource) Next() (pkt.Packet, bool) {
	p, ok := s.Src.Next()
	if !ok {
		return p, false
	}
	p.TS += s.Offset
	if p.TS > s.max {
		s.max = p.TS
	}
	return p, true
}

// Max returns the highest shifted timestamp Next has yielded.
func (s *ShiftSource) Max() time.Duration { return s.max }

// Config sizes an engine.
type Config struct {
	// Deploy is the deployment every shard replicates. Its FlowSlots is the
	// total register budget, divided evenly among shards (dataplane.NewShards).
	Deploy dataplane.Config
	// Shards is the worker/replica count. Default: GOMAXPROCS.
	Shards int
	// Burst is the packets-per-burst batch size. Default 32 (the DPDK
	// convention).
	Burst int
	// Queue is the per-shard queue depth in bursts. It bounds feed-side
	// runahead: a full queue backpressures Feed. Default 8.
	Queue int
	// ShutdownTimeout bounds every session teardown wait — Close/abort
	// waiting on workers, a feeder flush pushing into a stuck shard, a
	// Redeploy waiting for adoption. On expiry the wait is abandoned with a
	// typed cause error (ErrShutdownTimeout / ErrRedeployTimeout) instead of
	// wedging the caller. Default 5s.
	ShutdownTimeout time.Duration
	// WatchdogInterval is the wall-clock period of the session health
	// watchdog, which marks shards degraded when a full interval passes with
	// input queued but no burst completed (Session.Health). Default 20ms.
	WatchdogInterval time.Duration
	// FlightRecorder is the per-shard flight-recorder depth in events
	// (internal/telemetry/flight), rounded up to a power of two. The
	// recorder logs burst boundaries, expiry reclaims, eviction batches,
	// epoch adoptions, watchdog flags, and quarantines; Engine.FlightLog
	// snapshots it live, and a shard panic dumps it into
	// ShardPanicError.Postmortem. 0 selects flight.DefaultDepth (256);
	// negative disables recording entirely.
	FlightRecorder int
}

// Result is one engine run's (or closed session's) merged output.
type Result struct {
	// Digests from all shards in one deterministic stream, ordered by
	// classification time (ties broken by flow key), independent of worker
	// scheduling.
	Digests []dataplane.Digest
	// Stats is the sum of per-shard counters for this run.
	Stats dataplane.Stats
	// PerShard holds each shard's counters for this run, indexed by shard.
	PerShard []dataplane.Stats
	// Throughput reports wall-clock rates for this run.
	Throughput metrics.Throughput
	// Dropped counts packets discarded because their flow was blocked
	// (Session.Block) while the session ran — at the dispatch stage, or at
	// a worker for packets already queued when the verdict landed.
	Dropped int64
}

// shardPub is a worker's last published observation of its pipeline; the
// worker stores a fresh one after every burst (and on exit), so stats and
// active-flow reads are safe — and coherent per shard — while the run is in
// flight.
type shardPub struct {
	stats   dataplane.Stats
	active  int
	stashed int // flows currently parked in the flow table's stash
}

type shardState struct {
	pl   *dataplane.Pipeline
	in   *mpscRing // filled bursts: feeders (many) → worker (one)
	done atomic.Bool

	pub atomic.Pointer[shardPub]

	// Eviction mailbox: Session.Block/Evict enqueue flow keys here from any
	// goroutine; the worker — the only goroutine allowed to touch its
	// pipeline — drains it between bursts (and while idle, so blocking
	// frees state even when no traffic is flowing). evictN is the
	// emptiness fast path the worker checks each iteration.
	evictMu      sync.Mutex
	evictQ       []flow.Key
	evictScratch []flow.Key // worker-owned drain buffer, reused
	evictN       atomic.Int64

	// digests collects the current burst's digests until flushDigests
	// appends them to the session's log. Worker-private, capacity Burst
	// (a packet emits at most one digest), so emitting never allocates.
	digests []dataplane.Digest

	// sweepNow is the worker's monotone packet-time clock: the newest
	// timestamp it has processed, fed to the pipeline's ageing Sweep after
	// each burst. Worker-private.
	sweepNow time.Duration

	// filterEpoch/filterCheck cache the worker's last per-burst view of the
	// session's drop filter (epoch and non-emptiness), amortising the
	// per-packet atomic load to one load per burst on unblocked workloads.
	// Worker-private; reset by Start for each session's fresh filter.
	filterEpoch uint64
	filterCheck bool

	// latHist, when non-nil, is this session's digest-latency histogram for
	// the shard (WithDigestLatency): the worker records feeder-handoff →
	// digest-emission wall time for every digest it emits. Worker-writes,
	// observer-reads — Hist.Record is a lone atomic add, so live quantile
	// reads need no coordination. Set by Start, nil when latency is off.
	latHist *metrics.Hist

	// hold, when non-nil, gates the worker before each burst — a test hook
	// that makes backpressure deterministic. Always nil in production.
	hold chan struct{}

	// health is the shard's observable lifecycle state (HealthState values).
	// The worker stores ShardQuarantined on panic; the session watchdog
	// exchanges ShardRunning and ShardDegraded on stall evidence. Reset by
	// Start (quarantine does not outlive the session that panicked —
	// whatever state the panic left in the replica is the same state a
	// crashed-and-restarted pipe would resume from).
	health atomic.Int32
	// quarDrops counts packets this shard discarded while quarantined: the
	// remainder of the burst the panic interrupted plus every packet drained
	// from the ring afterwards.
	quarDrops atomic.Int64
	// progress counts completed bursts — the watchdog's liveness signal.
	progress atomic.Uint64
	// lastTS publishes the worker's packet-time clock (sweepNow) at its last
	// completed burst, for Health.LastProgress.
	lastTS atomic.Int64
	// pendingDep is the deployment published by Session.Redeploy and not yet
	// adopted by this worker; nil otherwise. epoch is the deployment epoch
	// the shard's replica currently runs.
	pendingDep atomic.Pointer[deployment]
	epoch      atomic.Uint64

	// rec is the shard's flight recorder (nil when disabled by config).
	// Written by the worker at burst/sweep/evict/adopt boundaries and —
	// rarely — by the session watchdog and the panic fence; the ring's
	// fetch-add claim keeps those safe without locking the worker.
	rec *flight.Ring
}

// evict enqueues a controller-initiated slot reclaim for the worker to
// apply. Safe from any goroutine.
func (s *shardState) evict(k flow.Key) {
	s.evictMu.Lock()
	s.evictQ = append(s.evictQ, k)
	s.evictMu.Unlock()
	s.evictN.Add(1)
	s.in.wakeConsumer()
}

// drainEvictions applies every queued eviction to the shard's pipeline.
// Worker-only. Returns how many slots it reclaimed (so the caller knows to
// publish a fresh snapshot when the count is non-zero).
func (s *shardState) drainEvictions() int {
	if s.evictN.Load() == 0 {
		return 0
	}
	s.evictMu.Lock()
	keys := append(s.evictScratch[:0], s.evictQ...)
	s.evictQ = s.evictQ[:0]
	s.evictN.Store(0)
	s.evictMu.Unlock()
	s.evictScratch = keys[:0]
	freed := 0
	for _, k := range keys {
		if s.pl.Evict(k) {
			freed++
		}
	}
	if freed > 0 && s.rec != nil {
		s.rec.Record(flight.KindEvict, s.sweepNow, int64(freed), int64(len(keys)))
	}
	return freed
}

// Engine drives sharded pipeline replicas. Construct with New. An Engine
// supports any number of sequential sessions (flow state persists across
// them, like a switch that stays up between traces) but at most one session
// at a time; all concurrency lives inside the session.
type Engine struct {
	cfg    Config
	shards []*shardState
	active atomic.Bool // a session is running

	// deployEpoch is the monotone deployment-epoch counter: 0 is the tree
	// the engine was built with, each Session.Redeploy takes the next value.
	// Engine-scoped (not per session) so epochs stay unique across a
	// session boundary that races a redeploy.
	deployEpoch atomic.Uint64

	// defFree is the engine-owned burst pool every session's default feeder
	// recycles through, built on first Start. Sessions are exclusive and a
	// closed session's workers have recycled every burst home, so reuse
	// across sequential sessions is safe — Run/Start-per-call patterns stay
	// allocation-free after the first session, as they were before feeders.
	defFree []*spscRing
}

// New validates the deployment and builds one pipeline replica per shard
// (sharing the frozen compiled tables). Burst pools are per producer, so
// they are allocated when a session constructs its feeders (NewFeeder),
// not here; the steady-state feed path still allocates nothing.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 32
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 5 * time.Second
	}
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = 20 * time.Millisecond
	}
	pls, err := dataplane.NewShards(cfg.Deploy, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{cfg: cfg, shards: make([]*shardState, cfg.Shards)}
	for i, pl := range pls {
		s := &shardState{
			pl:      pl,
			in:      newMPSCRing(cfg.Queue),
			digests: make([]dataplane.Digest, 0, cfg.Burst),
		}
		if cfg.FlightRecorder >= 0 {
			s.rec = flight.New(cfg.FlightRecorder)
		}
		s.pub.Store(&shardPub{})
		e.shards[i] = s
	}
	return e, nil
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ActiveFlows sums occupied register slots across shards. It reads the
// workers' published per-burst snapshots, so it is safe to call while a
// session is running (the value trails live state by at most one burst per
// shard).
func (e *Engine) ActiveFlows() int {
	n := 0
	for _, s := range e.shards {
		n += s.pub.Load().active
	}
	return n
}

// TableCap sums the shards' flow-table capacities — the denominator for
// occupancy gauges (ActiveFlows / TableCap).
func (e *Engine) TableCap() int {
	n := 0
	for _, s := range e.shards {
		n += s.pl.TableCap()
	}
	return n
}

// FlightLog snapshots a shard's flight-recorder ring: the last events (up
// to the configured depth) its worker, the session watchdog, and — on
// panic — the quarantine fence recorded. Lock-free and safe at any time,
// including mid-session; every returned event is internally consistent.
// Returns nil when the recorder is disabled or the shard is out of range.
func (e *Engine) FlightLog(shard int) []flight.Event {
	if shard < 0 || shard >= len(e.shards) || e.shards[shard].rec == nil {
		return nil
	}
	return e.shards[shard].rec.Snapshot(nil)
}

// runChunk is the batch size Run uses when feeding a generic Source through
// a session.
const runChunk = 2048

// Run drains the source through a session and returns the merged result —
// the batch facade over Start/Feed/Close. It is digest-multiset-identical
// to consuming the same source through the streaming API (it is the
// streaming API), and remains backward compatible with pre-session callers.
func (e *Engine) Run(src Source) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("engine: nil source")
	}
	s, err := e.Start(context.Background())
	if err != nil {
		return nil, err
	}
	if ss, ok := src.(*SliceSource); ok {
		// Fast path: feed the remaining slice directly, no per-packet copy
		// into a staging chunk.
		pkts := ss.Pkts[ss.pos:]
		ss.pos = len(ss.Pkts)
		if err := s.FeedAll(pkts); err != nil {
			s.Close()
			return nil, err
		}
		return s.Close()
	}
	if err := s.FeedSource(src); err != nil {
		s.Close()
		return nil, err
	}
	return s.Close()
}

// work is one shard's consumer loop: pop a burst, apply queued evictions,
// run the burst through the replica, advance flow-table expiry to the
// burst's packet time, append the burst's digests to the session's log,
// hand the burst back to its owning feeder's free ring, publish a fresh
// stats snapshot. Exits when the feed side has signalled done and the
// queue is drained.
//
// filter re-checks close the dispatch race: the feeders already drop
// blocked flows, but packets queued in the ring before a verdict landed
// would otherwise slip past — and after Block evicts the flow's slot, such
// a straggler would re-activate the slot and leak it again. The check is
// amortised per burst: the worker reloads the filter's epoch once per burst
// (after applying evictions) and walks packets through the filter only
// while that view says the filter has entries. The invariant that keeps
// eviction safe survives the amortisation because evictions are applied
// only at these same per-burst boundaries: Block installs the filter entry
// (bumping the epoch) before enqueueing the eviction, so by the time
// drainEvictions has applied it, the epoch refresh that follows must
// observe the bump and turn per-packet checks on — every packet processed
// after an applied eviction still sees the filter, and a blocked flow can
// never resurrect its register state. A verdict landing mid-burst whose
// eviction has not yet been applied may let that burst's stragglers through
// to the pipeline (they are dropped from the next burst on), which only
// moves a few packets from the dropped count to the processed count —
// exactly the dispatch race the Block contract already allows.
// only wall-clock reads are the allow-listed digest-latency stamps below.
//
//splidt:packettime — ageing sweeps advance on burst packet timestamps; the
func (s *shardState) work(sess *Session, shard int) {
	defer sess.wg.Done()
	for {
		b, ok := s.in.tryPop()
		if !ok {
			if s.done.Load() {
				// done is published after the final push; one more pop
				// closes the race with a flush that landed in between.
				if b, ok = s.in.tryPop(); !ok {
					s.drainEvictions()
					s.publish()
					return
				}
			} else {
				// Adopt a pending redeploy while idle: an idle shard must
				// not hold the epoch handoff hostage to its next packet.
				if dep := s.pendingDeploy(); dep != nil {
					s.adopt(dep)
				}
				// Apply evictions while idle so a controller block frees
				// register state even when no traffic is flowing.
				if s.drainEvictions() > 0 {
					s.publish()
				}
				// Nothing to do: sleep until a push, an eviction, a
				// redeploy or shutdown wakes the worker, instead of
				// burning a core the feeders could use.
				s.in.park(s.hasWork)
				continue
			}
		}
		if s.hold != nil {
			<-s.hold
		}
		// Burst boundary: the only place a new deployment may land, so no
		// packet ever observes a half-swapped tree and the shard's digest
		// stream switches epochs exactly at a burst edge.
		if dep := s.pendingDeploy(); dep != nil {
			s.adopt(dep)
		}
		s.drainEvictions()
		if !s.processBurst(sess, shard, b) {
			// The burst panicked the replica: the deferred fence recorded
			// the fault and recycled the burst; freeze the replica and fall
			// into the quarantine drain until session end.
			s.quarantine()
			return
		}
	}
}

// processBurst runs one burst through the replica under the quarantine
// fence: a panic anywhere in the per-packet path (pipeline, flow table,
// timer wheel, injected fault) is contained to this shard. On panic the
// fence flushes the digests the burst emitted before the panic (Stats
// already counts them), records the session's cause error, marks the
// shard quarantined, counts the burst's unprocessed remainder as
// quarantine drops, and still recycles the burst home so the owning
// feeder's pool stays whole. Returns whether the burst completed normally.
func (s *shardState) processBurst(sess *Session, shard int, b *burst) (ok bool) {
	i := 0
	if s.rec != nil {
		s.rec.Record(flight.KindBurstStart, s.sweepNow, int64(len(b.pkts)), int64(s.epoch.Load()))
	}
	defer func() {
		if r := recover(); r != nil {
			s.flushDigests(sess)
			dropped := int64(len(b.pkts) - i)
			var pm []flight.Event
			if s.rec != nil {
				// Record the quarantine itself, then freeze the shard's last
				// moments into the fault report: the postmortem every
				// ShardPanicError ships instead of losing them with the
				// goroutine.
				s.rec.Record(flight.KindQuarantine, s.sweepNow, dropped, 0)
				pm = s.rec.Snapshot(nil)
			}
			sess.recordFault(&ShardPanicError{Shard: shard, Value: r, Stack: debug.Stack(), Postmortem: pm})
			s.health.Store(int32(ShardQuarantined))
			s.quarDrops.Add(dropped)
			s.recycle(b)
			s.publish()
		}
	}()
	hooks := sess.hooks
	// Refresh the cached filter view once per burst — after the eviction
	// drain, so an applied eviction's filter entry is always observed.
	filter := &sess.filter
	if e := filter.ep.Load(); e != s.filterEpoch {
		s.filterEpoch = e
		s.filterCheck = filter.size() > 0
	}
	if s.filterCheck {
		for ; i < len(b.pkts); i++ {
			if filter.blocked(b.pkts[i].Key) {
				sess.dropped.Add(1)
				continue
			}
			if hooks != nil && hooks.BeforePacket != nil {
				hooks.BeforePacket(shard, &b.pkts[i])
			}
			if d := s.pl.Process(b.pkts[i]); d != nil {
				s.emit(d, b)
			}
		}
	} else {
		for ; i < len(b.pkts); i++ {
			if hooks != nil && hooks.BeforePacket != nil {
				hooks.BeforePacket(shard, &b.pkts[i])
			}
			if d := s.pl.Process(b.pkts[i]); d != nil {
				s.emit(d, b)
			}
		}
	}
	s.flushDigests(sess)
	npkts := len(b.pkts)
	if npkts > 0 {
		// Drive flow-table ageing from packet time, never wall clock:
		// one expiry-wheel advance per burst costs O(expired) and keeps
		// the schedule deterministic for a given burst sequence. The
		// clock is monotone across replayed waves (a re-streamed trace
		// restarts at time zero).
		if ts := b.pkts[npkts-1].TS; ts > s.sweepNow {
			s.sweepNow = ts
		}
		if reclaimed := s.pl.Sweep(s.sweepNow); reclaimed > 0 && s.rec != nil {
			s.rec.Record(flight.KindSweep, s.sweepNow, int64(reclaimed), 0)
		}
	}
	s.recycle(b)
	s.lastTS.Store(int64(s.sweepNow))
	s.progress.Add(1)
	s.publish()
	if s.rec != nil {
		s.rec.Record(flight.KindBurstEnd, s.sweepNow, int64(npkts), int64(s.pub.Load().stats.Digests))
	}
	return true
}

// emit records one digest the burst produced into the worker's scratch,
// and its feeder-handoff → emission latency when the session measures it.
func (s *shardState) emit(d *dataplane.Digest, b *burst) {
	if s.latHist != nil {
		//splidt:allow wallclock — digest latency is a harness metric measured in wall time by design
		s.latHist.RecordDur(time.Since(b.fedAt))
	}
	s.digests = append(s.digests, *d)
}

// quarantine is a panicked worker's terminal loop: the replica is frozen
// (never touched again — the panic may have left it mid-mutation), but the
// input ring keeps draining to the drop counter so feeders pushing at the
// dead shard never wedge, and bursts keep recycling home. Exits when the
// session signals done and the ring is empty, completing the worker's
// wg contribution so Close still drains cleanly.
func (s *shardState) quarantine() {
	for {
		b, ok := s.in.tryPop()
		if !ok {
			if s.done.Load() {
				if b, ok = s.in.tryPop(); !ok {
					return
				}
			} else {
				// Only a burst or shutdown ends the wait: a quarantined
				// shard never adopts or evicts, so waking for those would
				// only re-park.
				s.in.park(s.drainable)
				continue
			}
		}
		s.quarDrops.Add(int64(len(b.pkts)))
		s.recycle(b)
	}
}

// recycle empties a consumed burst, returns it to its owning feeder's free
// ring and wakes a feeder blocked on this shard. Worker only.
func (s *shardState) recycle(b *burst) {
	b.pkts = b.pkts[:0]
	b.home.push(b)
	s.in.recycled()
}

// drainable reports whether the worker has ring work: a published burst, or
// shutdown. Worker only.
func (s *shardState) drainable() bool {
	return s.in.ready() || s.done.Load()
}

// hasWork reports whether an idle worker has anything to do: ring work, a
// pending deployment, or queued evictions. Worker only.
func (s *shardState) hasWork() bool {
	return s.drainable() || s.pendingDep.Load() != nil || s.evictN.Load() > 0
}

// adopt swaps the pending deployment into the shard's replica — the
// per-shard half of Session.Redeploy's epoch handoff. Worker-only, called
// at burst boundaries and while idle. Publishing the epoch after the swap
// is what Redeploy's adoption wait observes.
func (s *shardState) adopt(dep *deployment) {
	s.pendingDep.CompareAndSwap(dep, nil)
	s.pl.Redeploy(dep.model, dep.compiled, dep.epoch)
	s.epoch.Store(dep.epoch)
	if s.rec != nil {
		s.rec.Record(flight.KindAdopt, s.sweepNow, int64(dep.epoch), 0)
	}
	s.publish()
}

// pendingDeploy returns the deployment waiting for this shard, nil when
// none is — the only cost hitless redeploy adds to the steady-state worker
// loop: one atomic pointer load per burst.
//
//splidt:hotpath
func (s *shardState) pendingDeploy() *deployment {
	return s.pendingDep.Load()
}

// publish refreshes the shard's observable snapshot; all fields are O(1)
// reads off the pipeline.
func (s *shardState) publish() {
	s.pub.Store(&shardPub{
		stats:   s.pl.Stats(),
		active:  s.pl.ActiveFlows(),
		stashed: s.pl.TableStats().Stashed,
	})
}

// subStats returns now − prev field-wise (one session's deltas).
//
//splidt:stats-complete dataplane.Stats
func subStats(now, prev dataplane.Stats) dataplane.Stats {
	d := dataplane.Stats{
		Packets:        now.Packets - prev.Packets,
		ControlPackets: now.ControlPackets - prev.ControlPackets,
		Digests:        now.Digests - prev.Digests,
		Collisions:     now.Collisions - prev.Collisions,
		RecircBytes:    now.RecircBytes - prev.RecircBytes,
		Evictions:      now.Evictions - prev.Evictions,
		Kicks:          now.Kicks - prev.Kicks,
		StashInserts:   now.StashInserts - prev.StashInserts,
		WheelExpiries:  now.WheelExpiries - prev.WheelExpiries,
	}
	for i := range d.WheelCascades {
		d.WheelCascades[i] = now.WheelCascades[i] - prev.WheelCascades[i]
	}
	return d
}

// sortDigests fixes a deterministic total order on the merged stream:
// classification time, then flow key, then the remaining fields (two
// digests can share a timestamp only across shards, so the key breaks the
// tie; the full tuple makes the order total even under key collisions).
func sortDigests(ds []dataplane.Digest) {
	sort.Slice(ds, func(a, b int) bool {
		x, y := ds[a], ds[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Key != y.Key {
			kx, ky := x.Key, y.Key
			if kx.SrcIP != ky.SrcIP {
				return kx.SrcIP < ky.SrcIP
			}
			if kx.DstIP != ky.DstIP {
				return kx.DstIP < ky.DstIP
			}
			if kx.SrcPort != ky.SrcPort {
				return kx.SrcPort < ky.SrcPort
			}
			if kx.DstPort != ky.DstPort {
				return kx.DstPort < ky.DstPort
			}
			return kx.Proto < ky.Proto
		}
		if x.Started != y.Started {
			return x.Started < y.Started
		}
		if x.Class != y.Class {
			return x.Class < y.Class
		}
		if x.Packets != y.Packets {
			return x.Packets < y.Packets
		}
		return x.Epoch < y.Epoch
	})
}
