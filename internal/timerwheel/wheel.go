// Package timerwheel implements the hierarchical timing wheel the flow
// table's per-entry expiry runs on — the reproduction's analogue of
// NDN-DPDK's MinTmr (container/mintmr), where every PIT entry embeds an
// intrusive timer node and a per-forwarder wheel fires exact per-entry
// deadlines in O(1).
//
// The wheel is hashed-hierarchical (Varghese & Lauck scheme, the shape the
// Linux kernel and DPDK timer libraries use): L levels of 2^s slots each,
// level l spanning 2^(s·l) ticks per slot, so a deadline up to
// 2^(s·L) ticks out files in exactly one slot. Arming, disarming, and
// firing are O(1); advancing costs one slot visit per elapsed tick plus a
// cascade whenever a level wraps, which re-files each parked node one
// level down — O(expired + cascaded) total, independent of how many
// timers are armed.
//
// Nodes are intrusive: the caller embeds a Node inside its own entry
// struct and the wheel links nodes into per-slot circular lists through
// sentinel headers, so steady-state arm/advance/expire never allocates.
// Because embedding structs may relocate (the cuckoo flow table moves
// entries between cells during displacement), Node.Relink repairs the
// neighbour pointers after a memmove — the one operation a
// pointer-intrusive list needs to survive value copies.
//
// Re-arming is lazy (park-and-recheck): a node re-armed to a later
// deadline only updates its due tick and stays in the slot it is filed
// under; when that slot comes round, the node is re-filed by its current
// due tick instead of firing. A flow entry re-armed on every packet thus
// costs one store per packet and one re-file per lifetime, rather than an
// unlink and relink — writes into neighbouring entries at random addresses
// — per packet. Only a re-arm to an earlier deadline relinks at once.
//
// The wheel runs on the caller's clock — packet time here, never wall
// clock — so expiry is deterministic for a given packet sequence and
// advance schedule.
package timerwheel

import (
	"fmt"
	"time"
)

// Default geometry: 4 levels of 64 slots at a 1ms tick span deadlines from
// 1ms to ~4.6h — wider than any flow lifetime the dataplane arms — while
// keeping the whole wheel at 256 slot headers.
const (
	// DefaultTick is the level-0 slot granularity.
	DefaultTick = time.Millisecond
	// DefaultSlots is the per-level slot count (must be a power of two).
	DefaultSlots = 64
	// DefaultLevels is the level count. Fixed-size per-level counters in
	// callers (dataplane.Stats.WheelCascades) are sized by it.
	DefaultLevels = 4
)

// Node is one intrusive timer. Embed it in the timed entry; the zero value
// is an unarmed node. A node must not be copied while armed except through
// the owning container's relocation path, which must call Relink on the
// copy (and never touch the stale source).
type Node struct {
	next, prev *Node
	// due is the absolute tick the node fires at (0 while unarmed).
	due int64
	// filed is the due tick the node's current slot was chosen for (0
	// while unarmed). due >= filed always: a later re-arm leaves the node
	// where it is, and the slot's visit re-files it.
	filed int64
	// Data is an opaque back-pointer from the node to its embedding entry,
	// set by the container at claim time. Pointer payloads keep arming
	// allocation-free (a pointer-to-interface conversion does not allocate).
	Data any
}

// Armed reports whether the node is currently linked into a wheel.
//
//splidt:hotpath
func (n *Node) Armed() bool { return n.next != nil }

// Unlink disarms the node: it splices itself out of its slot list and
// zeroes its links and ticks. Safe (a no-op) on an unarmed node, so every
// store free path can call it unconditionally. O(1), needs no wheel
// reference — which is what lets the flow table disarm entries it reclaims
// without holding the wheel that armed them.
//
//splidt:hotpath
func (n *Node) Unlink() {
	if n.next == nil {
		return
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.next, n.prev = nil, nil
	n.due, n.filed = 0, 0
}

// Relink repairs the slot list after the embedding entry was copied to a
// new address (cuckoo displacement): the copy carries valid next/prev
// pointers, but the neighbours still point at the stale source. Call it on
// the copy; the stale source must then be zeroed without Unlink (its links
// now belong to the copy). A no-op for unarmed nodes.
//
//splidt:hotpath
func (n *Node) Relink() {
	if n.next == nil {
		return
	}
	n.prev.next = n
	n.next.prev = n
}

// Config sizes a wheel.
type Config struct {
	// Tick is the level-0 slot granularity (default DefaultTick).
	Tick time.Duration
	// Slots is the per-level slot count; must be a power of two
	// (default DefaultSlots).
	Slots int
	// Levels is the hierarchy depth (default DefaultLevels).
	Levels int
	// OnExpire fires for every node whose deadline passes during Advance.
	// The node is already unlinked when the callback runs, so the callback
	// may free or rearm it. Required.
	OnExpire func(*Node)
}

// Stats are the wheel's monotone event counters.
type Stats struct {
	// Expiries counts nodes fired by Advance.
	Expiries int
	// Cascades[l-1] counts nodes re-filed out of level l when that level's
	// window wrapped (l in 1..Levels-1; level 0 nodes fire, never cascade).
	Cascades []int
}

// Wheel is one hierarchical timing wheel. Not safe for concurrent use: like
// the flow table it times, each wheel is owned by a single shard worker.
type Wheel struct {
	tick     time.Duration
	shift    uint  // log2(slots)
	mask     int64 // slots - 1
	levels   int
	slots    []Node // levels × 2^shift sentinel headers, flat
	cur      int64  // current tick: Advance has processed every tick <= cur
	span     int64  // furthest due tick Schedule files, relative to cur
	expire   func(*Node)
	expiries int
	cascades []int
}

// New builds a wheel. The zero time is tick 0; the first Advance may jump
// the wheel arbitrarily far forward.
func New(cfg Config) *Wheel {
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.Slots&(cfg.Slots-1) != 0 {
		panic(fmt.Sprintf("timerwheel: slot count %d not a power of two", cfg.Slots))
	}
	if cfg.Levels <= 0 {
		cfg.Levels = DefaultLevels
	}
	if cfg.OnExpire == nil {
		panic("timerwheel: OnExpire callback required")
	}
	shift := uint(0)
	for 1<<shift < cfg.Slots {
		shift++
	}
	if shift*uint(cfg.Levels) > 62 {
		panic("timerwheel: tick span overflows int64")
	}
	w := &Wheel{
		tick:     cfg.Tick,
		shift:    shift,
		mask:     int64(cfg.Slots - 1),
		levels:   cfg.Levels,
		slots:    make([]Node, cfg.Levels*cfg.Slots),
		span:     int64(1)<<(shift*uint(cfg.Levels)) - 1,
		expire:   cfg.OnExpire,
		cascades: make([]int, cfg.Levels-1),
	}
	for i := range w.slots {
		s := &w.slots[i]
		s.next, s.prev = s, s
	}
	return w
}

// Tick returns the wheel's level-0 granularity.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Now returns the wheel's current time, quantised to ticks.
func (w *Wheel) Now() time.Duration { return time.Duration(w.cur) * w.tick }

// Horizon returns the furthest deadline, relative to the wheel's current
// time, that Schedule accepts without clamping (deadlines past it fire at
// the horizon instead — the dataplane re-arms entries on every touch, so a
// clamped deadline only ever fires early on a flow that went quiet for the
// whole horizon anyway).
func (w *Wheel) Horizon() time.Duration {
	return time.Duration(w.span) * w.tick
}

// Stats returns a copy of the wheel's counters.
func (w *Wheel) Stats() Stats {
	return Stats{Expiries: w.expiries, Cascades: append([]int(nil), w.cascades...)}
}

// slot returns the sentinel of (level, index).
//
//splidt:hotpath
func (w *Wheel) slot(level int, idx int64) *Node {
	return &w.slots[int64(level)<<w.shift+idx]
}

// Schedule arms (or re-arms) the node to fire once the wheel advances past
// deadline. A deadline at or before the wheel's current time fires on the
// next Advance that moves time forward; one past the horizon fires at the
// horizon. Re-arming an armed node to a later deadline only records the
// new due tick — the node's slot is visited no later than the old one and
// re-files it then — while an earlier deadline relinks it at once. O(1);
// never allocates.
//
//splidt:hotpath
func (w *Wheel) Schedule(n *Node, deadline time.Duration) {
	// Ceiling tick: the node must not fire before its deadline has fully
	// passed on the caller's clock.
	due := int64((deadline + w.tick - 1) / w.tick)
	if due <= w.cur {
		due = w.cur + 1
	}
	if due > w.cur+w.span {
		due = w.cur + w.span
	}
	if n.next != nil && due >= n.filed {
		n.due = due
		return
	}
	n.Unlink()
	n.due = due
	w.place(n)
}

// place files a node by its absolute due tick: level l holds nodes due
// within (slots^l, slots^(l+1)] ticks, slot index is the due tick's level-l
// digit. Schedule's horizon clamp keeps every due tick inside the top
// level's span.
//
//splidt:hotpath
func (w *Wheel) place(n *Node) {
	n.filed = n.due
	dt := n.due - w.cur
	level := 0
	for dt >= int64(1)<<(w.shift*uint(level+1)) {
		level++
	}
	s := w.slot(level, (n.due>>(w.shift*uint(level)))&w.mask)
	n.prev = s
	n.next = s.next
	s.next.prev = n
	s.next = n
}

// Advance moves the wheel's clock to now, firing every node whose deadline
// has passed, and returns how many fired. Cost is one (usually empty) slot
// visit per elapsed tick plus O(1) per expired, cascaded or re-filed node —
// O(expired) for the dense advance schedules the engine drives (one call
// per burst). now below the current wheel time is a no-op: the clock is
// monotone, like the packet-time clock that drives it.
//
//splidt:hotpath
func (w *Wheel) Advance(now time.Duration) int {
	target := int64(now / w.tick)
	fired := 0
	for w.cur < target {
		w.cur++
		// Cascade every level whose window wraps at this tick, lowest
		// first. Nodes re-file strictly below their source level (their
		// remaining delta is now under the level's span) unless a lazy
		// re-arm moved them later, or fire here if their due tick is the
		// current one.
		for l := 1; l < w.levels; l++ {
			if w.cur&(int64(1)<<(w.shift*uint(l))-1) != 0 {
				break
			}
			fired += w.visit(l)
		}
		fired += w.visit(0)
	}
	return fired
}

// visit empties the level's current slot: every node due by now fires,
// every other one — filed in an upper level, or lazily re-armed past the
// tick it was filed for — is re-filed by its due tick. Level-0 residents
// have distinct slot indices per filed tick, so no lap check is needed.
//
//splidt:hotpath
func (w *Wheel) visit(level int) int {
	s := w.slot(level, (w.cur>>(w.shift*uint(level)))&w.mask)
	fired := 0
	for s.next != s {
		n := s.next
		if level > 0 {
			w.cascades[level-1]++
		}
		if n.due > w.cur {
			due := n.due // Unlink zeroes the ticks; keep the due one for re-filing
			n.Unlink()
			n.due = due
			w.place(n)
			continue
		}
		n.Unlink()
		w.expiries++
		fired++
		w.expire(n) //splidt:allow funcval — OnExpire callback; the dataplane's expire is itself //splidt:hotpath
	}
	return fired
}
