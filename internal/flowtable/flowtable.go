// Package flowtable is the associative flow-state store of the data plane:
// the register structure that maps a flow's 5-tuple onto its per-flow
// inference state (subtree ID, packet count, window feature registers).
//
// Three schemes implement one Store contract:
//
//   - Direct is the classic direct-mapped register array SpliDT's paper
//     deploys on Tofino: one slot per CRC32 hash index, no key verification
//     beyond ownership tracking, so colliding flows silently share state
//     (the hardware semantics the PR 1–4 equivalence tests pin).
//   - Cuckoo is a d-way set-associative table with cuckoo-style displacement
//     and a small bounded stash — the shape production flow tables take
//     (NDN-DPDK's PCCT, hardware cuckoo match engines). Every entry carries
//     its full key and lookups verify it, so flows never couple; inserts
//     displace resident entries along a bounded breadth-first eviction path
//     and overflow into the stash before giving up. Exactness extends from
//     the collision-free regime to high load factors. Keys also live in a
//     dense key line beside the cells (16 bytes each, one 64-byte line per
//     4-way bucket), so a probe reads one line per candidate bucket before
//     it touches any Entry.
//   - Oracle is an unbounded exact map — no real switch can build it, but it
//     is the ground truth the equivalence tests compare the bounded schemes
//     against.
//
// All schemes are single-writer by design, like the pipeline that owns them:
// one shard worker mutates one store. Steady-state operations (Acquire of a
// resident flow, Release, Evict) never allocate; only Oracle
// allocates on first-packet insert, which is why it is the test oracle and
// not a deployment scheme.
//
// The flow hash is computed once, at ingest: packet sources stamp
// pkt.Packet.ShardHash = flow.Mix64(CRC32 of the canonical key), and the
// pipeline un-mixes it (flow.Unmix64) and hands the CRC to AcquireHashed,
// so the per-packet path never rehashes the 5-tuple. Acquire(k) is
// AcquireHashed(k, k.Hash()) for callers that hold only a key.
//
// Contract: Acquire claims an Entry for a canonical flow key. A fresh entry
// is returned zeroed with its key recorded; the caller must set SID non-zero
// immediately (SID == 0 is the store's "free cell" marker, exactly as a
// zero subtree ID marks a free register slot on hardware). Release and
// Evict clear entries back to zero, disarming the entry's embedded timer
// node first — a cell is never recycled with a stale wheel deadline still
// linked to it. Idle expiry lives outside the store: the pipeline arms each
// entry's timer node on a timer wheel and releases the entry when it fires.
package flowtable

import (
	"time"

	"splidt/internal/features"
	"splidt/internal/flow"
	"splidt/internal/timerwheel"
)

// Entry is one flow's register state. Field layout mirrors the register
// arrays of the simulated pipeline: the subtree ID and packet count the
// model tables key on, the window feature state, and — when ageing is on —
// the embedded timer node and the per-class idle lifetime the pipeline
// last armed it with. The owning key is
// store-managed (set at Acquire, verified on lookup) and read through Key.
type Entry struct {
	SID      uint16
	PktCount uint32
	Started  time.Duration
	// Lifetime is the idle lifetime the entry's deadline is re-armed with
	// on every touch: the flow's current leaf's per-class lifetime once
	// classified onto one, the deployment's base lifetime before that.
	// Zero while ageing is off.
	Lifetime time.Duration
	State    features.FlowState

	// timer is the entry's intrusive wheel node. The stores own its
	// lifecycle edges — claim sets its back-pointer, every free path
	// disarms it, cuckoo displacement relinks it — while the pipeline owns
	// arming (Wheel.Schedule with the entry's deadline).
	timer timerwheel.Node

	key flow.Key
	// hb1/hb2 cache the entry's candidate bucket pair (cuckoo scheme only,
	// set at claim time) so displacement searches never rehash residents.
	hb1, hb2 int32
}

// Key returns the flow that owns the entry.
func (e *Entry) Key() flow.Key { return e.key }

// Timer returns the entry's intrusive wheel node, for the pipeline to arm
// (timerwheel.Wheel.Schedule). The node's Data back-pointer is maintained
// by the store; an expiry callback recovers the entry with
// n.Data.(*flowtable.Entry).
//
//splidt:hotpath
func (e *Entry) Timer() *timerwheel.Node { return &e.timer }

// free disarms the entry's timer and zeroes it — the one free path every
// store reclaim (Release, Evict, wheel expiry) must go through:
// zeroing an armed entry without unlinking would leave its slot-list
// neighbours pointing at a recycled cell, and a stale deadline could then
// expire whatever flow claims the cell next.
//
//splidt:hotpath
func (e *Entry) free() {
	e.timer.Unlink()
	*e = Entry{}
}

// Status reports how Acquire satisfied a lookup.
type Status int

const (
	// StatusOwner: the flow already owns the entry (verified key match for
	// associative schemes; hash-slot ownership for Direct).
	StatusOwner Status = iota
	// StatusFresh: the entry was just claimed for the flow; the caller must
	// activate it (set SID non-zero).
	StatusFresh
	// StatusShared: Direct only — the slot is owned by a different flow and
	// the two now share its registers, the hardware collision semantics.
	StatusShared
	// StatusFull: associative schemes only — no bucket way, no displacement
	// path, and no stash line could take the flow. Acquire returned nil; the
	// packet passes through with no flow state.
	StatusFull
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOwner:
		return "owner"
	case StatusFresh:
		return "fresh"
	case StatusShared:
		return "shared"
	case StatusFull:
		return "full"
	default:
		return "status(?)"
	}
}

// Stats are the store's first-class occupancy and placement counters.
// Occupied and Stashed are gauges; the rest are monotone counters, so
// per-session deltas and per-shard sums compose the way pipeline counters
// do.
type Stats struct {
	// Occupied is the number of live entries (gauge).
	Occupied int
	// Stashed is the number of entries currently resident in the overflow
	// stash (gauge; zero for Direct and Oracle).
	Stashed int
	// Kicks counts cuckoo displacements: one per entry moved to its
	// alternate bucket while clearing an insertion path.
	Kicks int
	// StashInserts counts inserts that found no bucket way or displacement
	// path and landed in the stash.
	StashInserts int
	// Rejects counts inserts refused outright: kick budget exhausted and
	// stash full. The rejected flow gets no state; the pipeline counts its
	// packets as collisions.
	Rejects int
}

// Store is the flow-state table contract the pipeline programs against.
// Implementations are not safe for concurrent use; each pipeline replica
// owns one store, mutated only by its shard worker.
type Store interface {
	// Acquire locates or claims the entry for a canonical flow key. It
	// returns the entry and how it was satisfied; on StatusFull the entry is
	// nil. Keys must be canonical (direction-normalised) — the pipeline
	// canonicalises once per packet.
	//
	//splidt:hotpath
	Acquire(k flow.Key) (*Entry, Status)
	// AcquireHashed is Acquire with the key's register hash supplied by the
	// caller: h must equal k.Hash(). The pipeline recovers it from the hash
	// the packet source stamped at ingest (flow.Unmix64 of
	// pkt.Packet.ShardHash), so the table indexes without recomputing the
	// CRC. Acquire(k) is AcquireHashed(k, k.Hash()).
	//
	//splidt:hotpath
	AcquireHashed(k flow.Key, h uint32) (*Entry, Status)
	// Release frees an entry obtained from Acquire (flow end). The pointer
	// must be one this store returned.
	//
	//splidt:hotpath
	Release(e *Entry)
	// Evict frees the entry owned by the flow, if any, reporting whether a
	// reclaim happened. For Direct this is a no-op when the slot is held by
	// a colliding flow (the slot is that flow's state now).
	//
	//splidt:hotpath
	Evict(k flow.Key) bool
	// Occupied returns the live-entry count, maintained incrementally (O(1)).
	Occupied() int
	// Cap returns the store's total cell count (buckets × ways + stash for
	// Cuckoo, the slot-array length for Direct). Oracle reports the current
	// entry count — it has no fixed capacity.
	Cap() int
	// ScanOccupied recounts live entries by full scan; tests cross-check it
	// against Occupied.
	ScanOccupied() int
	// Walk calls fn for every live entry (SID != 0). fn may mutate the
	// entry's register state in place but must not free it or change its
	// key. Not a hot-path operation: the pipeline uses it for whole-table
	// maintenance (redeploy SID fixup), one call per reconfiguration, never
	// per packet.
	Walk(fn func(*Entry))
	// Stats returns a copy of the store's counters.
	Stats() Stats
}
