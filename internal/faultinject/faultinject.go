// Package faultinject builds deterministic fault plans for the engine's
// chaos tests: seeded schedules of worker panics, shard stalls, ring
// overflows, sink stalls, and packet-clock jumps, fired from the engine's
// test hooks at exact per-shard packet ordinals. Determinism is the whole
// point — a plan derived from a seed injects the same faults at the same
// ordinals on every run, including under -race, so a chaos failure
// reproduces from its seed alone.
//
// The package deliberately does not import the engine: the engine's
// in-package tests import faultinject, and the dependency must stay
// one-way. Instead, Plan exposes methods whose signatures match the
// engine's TestHooks fields (BeforePacket, SinkDigest, PushRefuse); a test
// wires them field by field.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/pkt"
)

// Kind is a fault category.
type Kind int

// The fault kinds.
const (
	// WorkerPanic panics the shard's worker goroutine at packet ordinal
	// At — the engine must quarantine that shard and keep the rest alive.
	WorkerPanic Kind = iota
	// ShardStall blocks the shard's worker for Stall at packet ordinal At,
	// modelling a scheduling hiccup or a slow downstream call.
	ShardStall
	// RingOverflow refuses Count consecutive push attempts into the
	// shard's input ring starting at push ordinal At, forcing the feeder
	// through its backpressure path as if the ring were full.
	RingOverflow
	// SinkStall blocks the shard worker that emits digest ordinal At for
	// Stall, before it appends that burst's digests to the session's log —
	// backing that shard's ring up behind the stalled hand-off.
	SinkStall
	// ClockJump adds Jump to every packet timestamp on the shard from
	// packet ordinal At onward — a step in the packet clock, the kind of
	// discontinuity a replayed capture or a wrapped counter produces.
	ClockJump
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case WorkerPanic:
		return "worker-panic"
	case ShardStall:
		return "shard-stall"
	case RingOverflow:
		return "ring-overflow"
	case SinkStall:
		return "sink-stall"
	case ClockJump:
		return "clock-jump"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Lossy reports whether the kind can change what the engine emits.
// WorkerPanic drops the quarantined shard's traffic; ClockJump perturbs
// timestamps (and with them ageing and TTDs). The other kinds only delay —
// a non-lossy plan must leave the digest multiset exactly as a fault-free
// run produces it, which is what the chaos equivalence test pins.
func (k Kind) Lossy() bool { return k == WorkerPanic || k == ClockJump }

// Fault is one scheduled injection.
type Fault struct {
	Kind  Kind
	Shard int // target shard (ignored by SinkStall, which is global)

	// At is the zero-based ordinal that triggers the fault, counted in the
	// domain the kind observes: packets the shard's worker has seen
	// (WorkerPanic, ShardStall, ClockJump), push attempts into the shard's
	// ring (RingOverflow), or digests emitted across all shards (SinkStall).
	At uint64

	Stall time.Duration // ShardStall, SinkStall: how long to block
	Count uint64        // RingOverflow: consecutive attempts refused
	Jump  time.Duration // ClockJump: added to each timestamp from At on
}

// String renders the fault compactly, e.g. "shard-stall@s2:p100(2ms)".
func (f Fault) String() string {
	switch f.Kind {
	case WorkerPanic:
		return fmt.Sprintf("worker-panic@s%d:p%d", f.Shard, f.At)
	case ShardStall:
		return fmt.Sprintf("shard-stall@s%d:p%d(%v)", f.Shard, f.At, f.Stall)
	case RingOverflow:
		return fmt.Sprintf("ring-overflow@s%d:u%d(x%d)", f.Shard, f.At, f.Count)
	case SinkStall:
		return fmt.Sprintf("sink-stall@d%d(%v)", f.At, f.Stall)
	case ClockJump:
		return fmt.Sprintf("clock-jump@s%d:p%d(+%v)", f.Shard, f.At, f.Jump)
	default:
		return f.Kind.String()
	}
}

// Plan is an armed fault schedule. Its three hook methods are safe for the
// engine's concurrency (one worker per shard, many feeders) and carry no
// locks — every ordinal is an atomic (the digest ordinal is shared by all
// workers), so injection points cost one atomic add when the plan is
// quiet.
type Plan struct {
	faults []Fault

	pkts    []atomic.Uint64 // per-shard packets observed by BeforePacket
	pushes  []atomic.Uint64 // per-shard push attempts observed by PushRefuse
	digests atomic.Uint64   // digests observed by SinkDigest
	fired   []atomic.Bool   // per-fault once-latch (stalls and panics)
}

// New arms a plan over an engine with the given shard count. Faults
// targeting shards outside [0, shards) panic immediately — a mis-addressed
// fault would otherwise silently never fire and the test would pass
// vacuously.
func New(shards int, faults ...Fault) *Plan {
	if shards < 1 {
		panic("faultinject: shards < 1")
	}
	for _, f := range faults {
		if f.Kind != SinkStall && (f.Shard < 0 || f.Shard >= shards) {
			panic(fmt.Sprintf("faultinject: fault %v targets shard %d of %d", f, f.Shard, shards))
		}
	}
	return &Plan{
		faults: faults,
		pkts:   make([]atomic.Uint64, shards),
		pushes: make([]atomic.Uint64, shards),
		fired:  make([]atomic.Bool, len(faults)),
	}
}

// NonLossy derives a seeded random plan from the delay-only kinds
// (ShardStall, SinkStall, RingOverflow): 2–4 faults at ordinals inside the
// first few hundred packets, stalls of 1–3ms, overflows of 1–16 refused
// pushes. Deterministic in (seed, shards); every plan it returns must
// leave the digest multiset untouched.
func NonLossy(seed int64, shards int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(3)
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			faults = append(faults, Fault{
				Kind: ShardStall, Shard: rng.Intn(shards),
				At:    uint64(rng.Intn(400)),
				Stall: time.Duration(1+rng.Intn(3)) * time.Millisecond,
			})
		case 1:
			faults = append(faults, Fault{
				Kind:  SinkStall,
				At:    uint64(rng.Intn(400)),
				Stall: time.Duration(1+rng.Intn(3)) * time.Millisecond,
			})
		case 2:
			faults = append(faults, Fault{
				Kind: RingOverflow, Shard: rng.Intn(shards),
				At:    uint64(rng.Intn(300)),
				Count: uint64(1 + rng.Intn(16)),
			})
		}
	}
	return New(shards, faults...)
}

// Faults returns the plan's schedule (shared slice; do not mutate).
func (p *Plan) Faults() []Fault { return p.faults }

// String renders the full schedule.
func (p *Plan) String() string {
	parts := make([]string, len(p.faults))
	for i, f := range p.faults {
		parts[i] = f.String()
	}
	return "plan[" + strings.Join(parts, " ") + "]"
}

// Fired reports how many of the plan's once-faults (panics and stalls)
// have triggered — a test asserting a fault actually happened, not just
// that the run survived.
func (p *Plan) Fired() int {
	n := 0
	for i := range p.fired {
		if p.fired[i].Load() {
			n++
		}
	}
	return n
}

// Packets returns how many packets shard's worker has presented to the
// plan so far.
func (p *Plan) Packets(shard int) uint64 { return p.pkts[shard].Load() }

// BeforePacket is the engine's per-packet worker hook: it advances the
// shard's packet ordinal and fires any WorkerPanic, ShardStall, or
// ClockJump faults due at it.
func (p *Plan) BeforePacket(shard int, pk *pkt.Packet) {
	n := p.pkts[shard].Add(1) - 1
	for i := range p.faults {
		f := &p.faults[i]
		if f.Shard != shard || f.Kind == SinkStall || f.Kind == RingOverflow {
			continue
		}
		switch f.Kind {
		case WorkerPanic:
			if n == f.At && p.fired[i].CompareAndSwap(false, true) {
				panic(fmt.Sprintf("faultinject: %v", *f))
			}
		case ShardStall:
			if n == f.At && p.fired[i].CompareAndSwap(false, true) {
				time.Sleep(f.Stall)
			}
		case ClockJump:
			if n >= f.At {
				p.fired[i].Store(true)
				pk.TS += f.Jump
			}
		}
	}
}

// SinkDigest is the engine's digest-sink hook, run by whichever shard
// worker emitted the digest: it advances the session-wide digest ordinal
// and fires any SinkStall due at it.
func (p *Plan) SinkDigest(d *dataplane.Digest) {
	n := p.digests.Add(1) - 1
	for i := range p.faults {
		f := &p.faults[i]
		if f.Kind == SinkStall && n == f.At && p.fired[i].CompareAndSwap(false, true) {
			time.Sleep(f.Stall)
		}
	}
}

// PushRefuse is the feeder's ring-push hook: it advances the shard's push
// ordinal and reports whether a RingOverflow fault covers it — true means
// the feeder must treat the ring as full and take its backpressure path.
func (p *Plan) PushRefuse(shard int) bool {
	n := p.pushes[shard].Add(1) - 1
	refuse := false
	for i := range p.faults {
		f := &p.faults[i]
		if f.Kind == RingOverflow && f.Shard == shard && n >= f.At && n < f.At+f.Count {
			p.fired[i].Store(true)
			refuse = true
		}
	}
	return refuse
}
