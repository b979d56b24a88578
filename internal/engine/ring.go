package engine

//splidt:packettime — ring transfer sits on the per-packet path; bursts carry packet timestamps, never wall-clock reads

import (
	"runtime"
	"sync/atomic"
	"time"

	"splidt/internal/pkt"
)

// burst is a fixed-capacity packet batch — the unit that moves between a
// feeder and a shard worker. Bursts are allocated once per (feeder, shard)
// pair at feeder construction and recycled through that pair's private free
// ring (home), so the steady-state hot path performs no allocation.
type burst struct {
	pkts []pkt.Packet // len == n valid packets, cap == engine burst size
	// fedAt is the wall-clock instant the feeder handed this burst to a
	// shard ring — the start of the digest-latency clock. Stamped only for
	// sessions started WithDigestLatency; stale otherwise (bursts recycle),
	// which is fine because the worker reads it only when latency is on.
	fedAt time.Time
	// home is the free ring this burst recycles through: the SPSC ring of
	// the (feeder, shard) pair that owns it. The shard's worker is its only
	// producer and the owning feeder its only consumer.
	home *spscRing
}

// spscRing is a bounded single-producer single-consumer ring of bursts.
// head is owned by the consumer and tail by the producer; each side only
// ever stores its own index, so plain atomic loads/stores give a correct
// lock-free queue (the standard DPDK/ndn-dpdk rte_ring SP/SC shape).
// Capacity is a power of two so index reduction is a mask.
type spscRing struct {
	buf  []*burst
	mask uint64

	// head and tail sit on separate cache lines so the producer and
	// consumer cores do not false-share.
	_    [64]byte
	head atomic.Uint64 // next index to pop (consumer-owned)
	_    [64]byte
	tail atomic.Uint64 // next index to push (producer-owned)
	_    [64]byte
}

// newRing builds a ring with capacity rounded up to a power of two (≥ 2).
func newRing(capacity int) *spscRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &spscRing{buf: make([]*burst, n), mask: uint64(n - 1)}
}

// tryPush enqueues b, reporting false when the ring is full.
//
//splidt:hotpath
func (r *spscRing) tryPush(b *burst) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = b
	r.tail.Store(tail + 1)
	return true
}

// tryPop dequeues the oldest burst, reporting false when the ring is empty.
//
//splidt:hotpath
func (r *spscRing) tryPop() (*burst, bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil, false
	}
	b := r.buf[head&r.mask]
	r.buf[head&r.mask] = nil
	r.head.Store(head + 1)
	return b, true
}

// empty reports whether the ring holds no burst. Safe from any goroutine.
func (r *spscRing) empty() bool {
	return r.head.Load() == r.tail.Load()
}

// push spins until b fits. Backpressure: a full ring means the worker is
// behind, so the producer yields its timeslice rather than busy-burning.
func (r *spscRing) push(b *burst) {
	for !r.tryPush(b) {
		runtime.Gosched()
	}
}

// mpscSlot is one cell of an mpscRing: the burst plus the slot's sequence
// number, which encodes whose turn the cell is on (producer lap vs consumer
// lap) without any shared lock.
type mpscSlot struct {
	seq atomic.Uint64
	b   *burst
}

// mpscRing is a bounded multi-producer single-consumer ring of bursts — the
// shard input queue once multiple feeders dispatch concurrently. Producers
// reserve a slot by CAS on tail (the rte_ring MP reservation, cf.
// ndn-dpdk's input-thread → forwarder rings), then publish the burst by
// advancing the slot's sequence number; the consumer side is unchanged from
// the SPSC shape: it spins nowhere, owns head outright, and observes each
// slot's sequence to know when its burst is published. This is the classic
// Vyukov bounded-queue discipline restricted to one consumer.
//
// Per-producer FIFO holds: a producer's successive pushes reserve strictly
// increasing slot indices, and the consumer pops in slot order — so bursts
// from one feeder never reorder, which is what keeps per-flow packet order
// intact when each flow is confined to one feeder.
type mpscRing struct {
	slots []mpscSlot
	mask  uint64

	// tail is shared by all producers (CAS); head is consumer-private.
	// Separate cache lines so producers and the consumer do not false-share.
	_    [64]byte
	tail atomic.Uint64 // next slot index to reserve (producers, CAS)
	_    [64]byte
	head uint64 // next slot index to pop (consumer-owned, no atomics needed)
	// pops mirrors head for observers: the consumer publishes its pop count
	// here so the health watchdog can read backlog() without touching the
	// consumer-private head. One extra atomic store per pop, no contention.
	pops atomic.Uint64
	_    [64]byte

	// Parked hand-off, both directions. The consumer raises parked, re-checks
	// for work and only then blocks on wake; every producer of consumer work
	// publishes it first and then sends wake a token if parked is up. Feeders
	// the shard holds up (ring full, or their free ring for it empty) count
	// themselves in waiters, re-check, and block on room; the consumer sends
	// room a token after every burst it returns home while waiters > 0.
	// sync/atomic is sequentially consistent, so flag-then-recheck on one
	// side against publish-then-load-flag on the other cannot lose a wake.
	// Both channels hold one token: a token sent to nobody makes the next
	// wait return at once and re-check, which costs one spurious loop.
	parked  atomic.Bool
	wake    chan struct{}
	waiters atomic.Int32
	room    chan struct{}
}

// newMPSCRing builds a ring with capacity rounded up to a power of two
// (≥ 2). Slot i starts at sequence i, meaning "free for the producer whose
// reservation lands on index i".
func newMPSCRing(capacity int) *mpscRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &mpscRing{
		slots: make([]mpscSlot, n),
		mask:  uint64(n - 1),
		wake:  make(chan struct{}, 1),
		room:  make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// tryPush enqueues b, reporting false when the ring is full, and wakes the
// consumer if it is parked. Every producer pushes through here, so no
// enqueue can land behind a consumer that has gone to sleep. Safe from any
// number of concurrent producers.
func (r *mpscRing) tryPush(b *burst) bool {
	if !r.enqueue(b) {
		return false
	}
	r.wakeConsumer()
	return true
}

// enqueue is tryPush without the wake: the lock-free slot reservation and
// publish.
//
//splidt:hotpath
func (r *mpscRing) enqueue(b *burst) bool {
	for {
		tail := r.tail.Load()
		s := &r.slots[tail&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == tail:
			// Slot free this lap: reserve it. A CAS loss means another
			// producer took the index — retry at the new tail.
			if r.tail.CompareAndSwap(tail, tail+1) {
				s.b = b
				s.seq.Store(tail + 1) // publish: consumer may now take it
				return true
			}
		case seq < tail:
			// Slot still holds last lap's unconsumed burst: ring is full.
			return false
		default:
			// tail moved between the two loads; retry with a fresh view.
		}
	}
}

// tryPop dequeues the oldest published burst, reporting false when none is
// ready. Single consumer only. A slot whose producer has reserved but not
// yet published reads as not-ready, preserving slot order.
//
//splidt:hotpath
func (r *mpscRing) tryPop() (*burst, bool) {
	s := &r.slots[r.head&r.mask]
	if s.seq.Load() != r.head+1 {
		return nil, false
	}
	b := s.b
	s.b = nil
	// Release the slot for the producer one lap ahead.
	s.seq.Store(r.head + uint64(len(r.slots)))
	r.head++
	r.pops.Store(r.head)
	return b, true
}

// backlog reports how many bursts are enqueued but not yet popped. Safe from
// any goroutine: it reads only the producers' tail and the consumer's
// published pop count, never the consumer-private head. The two loads are not
// a snapshot, so the result can transiently overshoot by in-flight pushes —
// fine for the health watchdog, which only needs "is work piling up".
func (r *mpscRing) backlog() int {
	t := r.tail.Load()
	p := r.pops.Load()
	if t <= p {
		return 0
	}
	return int(t - p)
}

// push spins until b fits, yielding the timeslice while the consumer is
// behind.
func (r *mpscRing) push(b *burst) {
	for !r.tryPush(b) {
		runtime.Gosched()
	}
}

// ready reports whether the next slot's burst is published, so a tryPop
// would succeed. Consumer only.
func (r *mpscRing) ready() bool {
	return r.slots[r.head&r.mask].seq.Load() == r.head+1
}

// full reports whether every slot is reserved: a tryPush now would fail.
// Safe from any goroutine. pops is stored after the slot's release, so a
// slot counted as popped here is already free for the next lap.
func (r *mpscRing) full() bool {
	return r.tail.Load()-r.pops.Load() >= uint64(len(r.slots))
}

// wakeConsumer hands a parked consumer its wake token. The caller must have
// published the work the consumer is woken for (a burst, a done flag, a
// pending deployment, an eviction) before calling it. Never blocks; costs
// one atomic load while the consumer is awake.
func (r *mpscRing) wakeConsumer() {
	if r.parked.Load() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// park blocks the consumer until a producer wakes it, unless busy — checked
// after the parked flag is up — finds work already waiting. The consumer
// re-checks its queues after park returns either way.
func (r *mpscRing) park(busy func() bool) {
	r.parked.Store(true)
	if !busy() {
		<-r.wake
	}
	r.parked.Store(false)
}

// recycled tells feeders blocked on this ring that the consumer has freed a
// slot and returned a burst home. Consumer only, after the home push; costs
// one atomic load while no feeder waits.
func (r *mpscRing) recycled() {
	if r.waiters.Load() > 0 {
		select {
		case r.room <- struct{}{}:
		default:
		}
	}
}

// awaitRecycle blocks a producer until the consumer recycles a burst or stop
// closes, provided the ring still holds the producer up: it is full, or free
// (the producer's own free ring for this shard; nil to ignore) is empty.
// Either way a burst sits in the ring or in the consumer's hands, so a
// recycle, and with it a room token, is on its way. Returns false without
// blocking when neither holds.
//
// With several producers blocked, one token wakes one of them. Nothing is
// lost: the woken producer pushes into this ring (its first unplaceable
// packet belongs here) or finds it full again, so either way more recycles,
// and more tokens, follow until every waiter has run.
func (r *mpscRing) awaitRecycle(free *spscRing, stop <-chan struct{}) bool {
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	if !r.full() && (free == nil || !free.empty()) {
		return false
	}
	select {
	case <-r.room:
	case <-stop:
	}
	return true
}
