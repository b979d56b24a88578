package flowtable

import "splidt/internal/flow"

// Direct is the direct-mapped register array: one slot per CRC32 hash
// index. It reproduces the hardware (and pre-flowtable pipeline) semantics
// exactly: a flow's slot is slots[hash % len], a colliding flow shares the
// owner's registers (StatusShared), and nothing verifies the full key on
// the packet path. It exists so the `direct` table scheme stays
// byte-for-byte what every PR 1–4 equivalence test pinned.
type Direct struct {
	entries  []Entry
	occupied int
	stats    Stats
}

// NewDirect builds a direct-mapped store with the given slot count.
// size must be positive.
func NewDirect(size int) *Direct {
	if size <= 0 {
		panic("flowtable: non-positive direct table size")
	}
	return &Direct{entries: make([]Entry, size)}
}

// slotOf maps a canonical key's register hash onto its one slot with
// flow.IndexOf, the same function the pipeline indexed registers with
// before the store existed.
//
//splidt:hotpath
func (d *Direct) slotOf(h uint32) *Entry {
	return &d.entries[flow.IndexOf(h, len(d.entries))]
}

// Acquire implements Store.
//
//splidt:hotpath
func (d *Direct) Acquire(k flow.Key) (*Entry, Status) { return d.AcquireHashed(k, k.Hash()) }

// AcquireHashed implements Store: claim an empty slot, recognise the owner,
// or report a shared collision — never nil.
//
//splidt:hotpath
func (d *Direct) AcquireHashed(k flow.Key, h uint32) (*Entry, Status) {
	e := d.slotOf(h)
	if e.SID == 0 {
		e.key = k
		e.timer.Data = e
		d.occupied++
		return e, StatusFresh
	}
	if e.key != k {
		return e, StatusShared
	}
	return e, StatusOwner
}

// Release implements Store.
//
//splidt:hotpath
func (d *Direct) Release(e *Entry) {
	e.free()
	d.occupied--
}

// Evict implements Store: only the owning flow's eviction frees the slot.
//
//splidt:hotpath
func (d *Direct) Evict(k flow.Key) bool {
	e := d.slotOf(k.Hash())
	if e.SID == 0 || e.key != k {
		return false
	}
	d.Release(e)
	return true
}

// Occupied implements Store.
func (d *Direct) Occupied() int { return d.occupied }

// Cap implements Store.
func (d *Direct) Cap() int { return len(d.entries) }

// Walk implements Store.
func (d *Direct) Walk(fn func(*Entry)) {
	for i := range d.entries {
		if d.entries[i].SID != 0 {
			fn(&d.entries[i])
		}
	}
}

// ScanOccupied implements Store.
func (d *Direct) ScanOccupied() int {
	n := 0
	for i := range d.entries {
		if d.entries[i].SID != 0 {
			n++
		}
	}
	return n
}

// Stats implements Store. Direct never kicks, stashes, or rejects.
func (d *Direct) Stats() Stats {
	s := d.stats
	s.Occupied = d.occupied
	return s
}
