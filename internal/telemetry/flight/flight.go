// Package flight is the engine's per-shard flight recorder: a fixed-size,
// allocation-free, overwrite-oldest event ring written from the shard
// worker's burst loop and snapshotted lock-free by the management plane.
//
// The ring exists for two consumers. Live, the telemetry server serves it
// at /flightrecorder so an operator can see what a shard was doing moments
// ago (burst cadence, sweep reclaims, eviction batches, epoch adoptions,
// watchdog flags). Post-mortem, the engine's quarantine fence snapshots it
// into ShardPanicError, so every shard panic ships the last ~256 events
// preceding the fault instead of vanishing with the goroutine.
//
// Write protocol. Every slot field is an atomic; a writer claims a global
// position with a fetch-add on the cursor, invalidates the slot (seq←0),
// stores the payload fields, then publishes by storing seq←position+1.
// The fetch-add claim makes the rare non-worker writers (the session
// watchdog flagging a stall, the panic fence recording the quarantine
// itself) safe alongside the shard worker without giving the worker's fast
// path anything heavier than one uncontended atomic add. A reader accepts
// a slot only if seq matches the expected position both before and after
// loading the payload, so a snapshot taken mid-write drops the torn entry
// rather than reporting a frankenstein event. The only way a stale entry
// could pass both checks is a writer stalled for an exact multiple of a
// full lap around the ring — accepted as harmlessly improbable for a
// diagnostic stream.
//
// This package sits below internal/engine (the engine embeds a Ring per
// shard) and therefore imports nothing from the module.
package flight

import (
	"sync/atomic"
	"time"
)

// Kind classifies a recorded event. The zero value is reserved so an
// unpublished slot can never decode as a real event kind.
type Kind uint8

// The event kinds, with the meaning of the A/B payload fields for each.
const (
	// KindNone marks an unwritten slot; never returned by Snapshot.
	KindNone Kind = iota
	// KindBurstStart: the worker dequeued a burst. A = packets in the
	// burst, B = the shard's live deploy epoch.
	KindBurstStart
	// KindBurstEnd: the burst completed and stats published. A = packets
	// processed, B = digests emitted so far (cumulative).
	KindBurstEnd
	// KindSweep: a per-burst Pipeline.Sweep — the flow-table expiry
	// wheel's advance — reclaimed state. A = entries reclaimed. Recorded
	// only when A > 0; per-burst no-op advances would drown everything
	// else. The event keeps its "sweep" name so /flightrecorder consumers
	// stay unbroken.
	KindSweep
	// KindEvict: a drained eviction batch (controller block decisions)
	// was applied. A = entries actually freed, B = batch size requested.
	KindEvict
	// KindAdopt: the shard adopted a pending deployment at a burst
	// boundary. A = the new deploy epoch.
	KindAdopt
	// KindWatchdog: the session watchdog flipped this shard's health.
	// A = 1 flagged degraded (backlog with no progress), 0 recovered.
	KindWatchdog
	// KindQuarantine: the worker panicked and the recover fence
	// quarantined the shard. A = packets dropped from the fatal burst.
	// Always the final event a shard records.
	KindQuarantine
)

var kindNames = [...]string{
	KindNone:       "none",
	KindBurstStart: "burst-start",
	KindBurstEnd:   "burst-end",
	KindSweep:      "sweep",
	KindEvict:      "evict",
	KindAdopt:      "adopt",
	KindWatchdog:   "watchdog",
	KindQuarantine: "quarantine",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// DefaultDepth is the ring depth used when the engine config leaves the
// flight-recorder knob at zero: enough history to reconstruct several
// thousand packets of context ahead of a quarantine, small enough that
// per-shard cost is a few KB.
const DefaultDepth = 256

// Event is one decoded flight-recorder entry as returned by Snapshot.
type Event struct {
	// Seq is the global record position (1-based, monotone per ring).
	// Gaps in a snapshot mean the writer lapped the reader mid-walk.
	Seq uint64
	// Kind says what happened; A and B are payload whose meaning is
	// documented per kind.
	Kind Kind
	// TS is the recording shard's packet-time clock at the event (the
	// highest packet timestamp it had swept to), not wall time.
	TS time.Duration
	A  int64
	B  int64
}

// slot is one ring cell. Every field is an atomic so concurrent
// Record/Snapshot stay exact under the race detector; seq doubles as the
// publication flag (0 = mid-write).
type slot struct {
	seq  atomic.Uint64
	kind atomic.Uint32
	ts   atomic.Int64
	a    atomic.Int64
	b    atomic.Int64
}

// Ring is a fixed-depth overwrite-oldest event log. One writer is expected
// to dominate (the shard worker), but any goroutine may Record; Snapshot
// never blocks either side.
type Ring struct {
	cur   atomic.Uint64
	mask  uint64
	slots []slot
}

// New builds a ring holding the last depth events, rounded up to a power
// of two; depth <= 0 selects DefaultDepth. All memory is allocated here —
// Record never allocates.
func New(depth int) *Ring {
	if depth <= 0 {
		depth = DefaultDepth
	}
	n := 1
	for n < depth {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Depth returns the ring's capacity in events.
func (r *Ring) Depth() int { return len(r.slots) }

// Record appends one event, overwriting the oldest. Wait-free for the
// writer: one fetch-add to claim a position, five plain atomic stores to
// fill and publish the slot.
//
//splidt:hotpath
func (r *Ring) Record(k Kind, ts time.Duration, a, b int64) {
	pos := r.cur.Add(1)
	s := &r.slots[(pos-1)&r.mask]
	s.seq.Store(0) // invalidate: readers reject the slot until republished
	s.kind.Store(uint32(k))
	s.ts.Store(int64(ts))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(pos)
}

// Snapshot appends the ring's current contents to dst (oldest first) and
// returns the extended slice. Lock-free and safe against concurrent
// Record: entries being overwritten mid-read fail seq validation and are
// skipped, so every returned event is internally consistent. Pass a nil
// dst to allocate, or a recycled buffer to avoid it.
func (r *Ring) Snapshot(dst []Event) []Event {
	hi := r.cur.Load()
	n := uint64(len(r.slots))
	lo := uint64(1)
	if hi > n {
		lo = hi - n + 1
	}
	for pos := lo; pos <= hi; pos++ {
		s := &r.slots[(pos-1)&r.mask]
		if s.seq.Load() != pos {
			continue // unpublished, torn, or already lapped
		}
		ev := Event{
			Seq:  pos,
			Kind: Kind(s.kind.Load()),
			TS:   time.Duration(s.ts.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		if s.seq.Load() != pos {
			continue // overwritten while we were reading the payload
		}
		dst = append(dst, ev)
	}
	return dst
}
