package flowtable

import "splidt/internal/flow"

// Oracle is the unbounded exact store: every flow gets a private entry, no
// collisions, no displacement, no capacity. It is physically unbuildable —
// registers on a switch are finite — which is exactly why it exists: the
// high-collision equivalence tests run the bounded schemes against it as
// ground truth. Unlike Direct and Cuckoo it allocates on first-packet
// insert (map growth plus one entry), so it is a test instrument, not a
// deployment scheme.
type Oracle struct {
	flows map[flow.Key]*Entry
	stats Stats
}

// NewOracle builds an unbounded exact store.
func NewOracle() *Oracle {
	return &Oracle{flows: make(map[flow.Key]*Entry)}
}

// Acquire implements Store.
func (o *Oracle) Acquire(k flow.Key) (*Entry, Status) { return o.AcquireHashed(k, k.Hash()) }

// AcquireHashed implements Store: always Owner or Fresh, never Shared or
// Full. The map hashes the key itself, so h is unused.
func (o *Oracle) AcquireHashed(k flow.Key, _ uint32) (*Entry, Status) {
	if e, ok := o.flows[k]; ok {
		return e, StatusOwner
	}
	e := &Entry{key: k}
	e.timer.Data = e
	o.flows[k] = e
	return e, StatusFresh
}

// Release implements Store.
func (o *Oracle) Release(e *Entry) {
	delete(o.flows, e.key)
	e.free()
}

// Evict implements Store.
func (o *Oracle) Evict(k flow.Key) bool {
	e, ok := o.flows[k]
	if !ok || e.SID == 0 {
		return false
	}
	o.Release(e)
	return true
}

// Occupied implements Store.
func (o *Oracle) Occupied() int { return len(o.flows) }

// Cap implements Store: the oracle is unbounded, so its capacity is
// whatever it currently holds.
func (o *Oracle) Cap() int { return len(o.flows) }

// Walk implements Store.
func (o *Oracle) Walk(fn func(*Entry)) {
	for _, e := range o.flows {
		if e.SID != 0 {
			fn(e)
		}
	}
}

// ScanOccupied implements Store.
func (o *Oracle) ScanOccupied() int {
	n := 0
	for _, e := range o.flows {
		if e.SID != 0 {
			n++
		}
	}
	return n
}

// Stats implements Store.
func (o *Oracle) Stats() Stats {
	s := o.stats
	s.Occupied = len(o.flows)
	return s
}
