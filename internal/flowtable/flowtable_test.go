package flowtable

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"splidt/internal/flow"
	"splidt/internal/timerwheel"
)

// testKey builds the i-th distinct canonical key of the test universe
// (10.x source below 172.x destination, so keys are canonical as built).
func testKey(i int) flow.Key {
	return flow.Key{
		SrcIP:   flow.AddrFrom4(10, byte(i>>16), byte(i>>8), byte(i)),
		DstIP:   flow.AddrFrom4(172, 16, 0, 1),
		SrcPort: uint16(1024 + i%50000),
		DstPort: 443,
		Proto:   flow.ProtoTCP,
	}
}

// findKey scans the test-key universe from *cursor for a key whose bucket
// pair is exactly (b1, b2), advancing the cursor so repeated calls yield
// distinct keys.
func findKey(t *testing.T, tab *Cuckoo, cursor *int, b1, b2 int) flow.Key {
	t.Helper()
	for ; *cursor < 1<<22; *cursor++ {
		k := testKey(*cursor)
		g1, g2 := tab.bucketPair(k.Hash())
		if g1 == b1 && g2 == b2 {
			*cursor++
			return k
		}
	}
	t.Fatalf("no key with bucket pair (%d, %d)", b1, b2)
	return flow.Key{}
}

// inStash reports whether the entry pointer is a stash line.
func (t *Cuckoo) inStash(e *Entry) bool {
	for i := range t.stash {
		if e == &t.stash[i] {
			return true
		}
	}
	return false
}

// checkKeyLine pins the dense key line's coherence with the bucket cells:
// every live cell's key line holds its entry's key and every free cell's
// holds the zero key. Stash lines have no key line.
func checkKeyLine(t testing.TB, c *Cuckoo) {
	t.Helper()
	if len(c.keys) != len(c.entries) {
		t.Fatalf("key line has %d cells, table %d", len(c.keys), len(c.entries))
	}
	for i := range c.entries {
		var want flow.Key
		if c.entries[i].SID != 0 {
			want = c.entries[i].key
		}
		if c.keys[i] != want {
			t.Fatalf("cell %d (SID %d): key line %v, want %v", i, c.entries[i].SID, c.keys[i], want)
		}
	}
}

// activate claims an entry the way the pipeline does: Acquire then set a
// live SID (the store's occupied marker).
func activate(t *testing.T, s Store, k flow.Key) *Entry {
	t.Helper()
	e, st := s.Acquire(k)
	if st != StatusFresh {
		t.Fatalf("Acquire(%v) = %v, want fresh", k, st)
	}
	e.SID = 1
	return e
}

// TestDirectSemantics pins the direct-mapped scheme's hardware contract:
// fresh claim, owner recognition, shared collision (same entry pointer, no
// key verification), owner-only eviction.
func TestDirectSemantics(t *testing.T) {
	d := NewDirect(1) // one slot: any two keys collide
	a, b := testKey(1), testKey(2)

	ea := activate(t, d, a)
	if e, st := d.Acquire(a); st != StatusOwner || e != ea {
		t.Fatalf("owner re-acquire = (%p, %v), want (%p, owner)", e, st, ea)
	}
	if e, st := d.Acquire(b); st != StatusShared || e != ea {
		t.Fatalf("collider acquire = (%p, %v), want shared pointer %p", e, st, ea)
	}
	if d.Occupied() != 1 || d.ScanOccupied() != 1 {
		t.Fatalf("occupied = %d/%d, want 1/1", d.Occupied(), d.ScanOccupied())
	}
	if d.Evict(b) {
		t.Fatal("non-owner eviction reclaimed the slot")
	}
	if !d.Evict(a) || d.Occupied() != 0 {
		t.Fatal("owner eviction failed")
	}
	if st := d.Stats(); st.Kicks != 0 || st.Stashed != 0 || st.StashInserts != 0 || st.Rejects != 0 {
		t.Fatalf("direct scheme reported associative counters: %+v", st)
	}
	if d.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", d.Cap())
	}
}

// TestCuckooVerifiedEntriesNeverShare is the scheme's reason to exist:
// flows that would couple in a direct table each get a private, full-key-
// verified entry.
func TestCuckooVerifiedEntriesNeverShare(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 4, Ways: 4, Stash: 2}) // one bucket
	if c.Buckets() != 1 || c.Ways() != 4 {
		t.Fatalf("geometry %d×%d, want 1×4", c.Buckets(), c.Ways())
	}
	keys := []flow.Key{testKey(1), testKey(2), testKey(3), testKey(4)}
	entries := make(map[*Entry]flow.Key)
	for _, k := range keys {
		e := activate(t, c, k)
		if prev, dup := entries[e]; dup {
			t.Fatalf("keys %v and %v share entry %p", prev, k, e)
		}
		entries[e] = k
		checkKeyLine(t, c)
	}
	for _, k := range keys {
		e, st := c.Acquire(k)
		if st != StatusOwner {
			t.Fatalf("Acquire(%v) = %v, want owner", k, st)
		}
		if e.Key() != k {
			t.Fatalf("entry key %v, want %v (verification failed)", e.Key(), k)
		}
	}
	if c.Occupied() != 4 || c.ScanOccupied() != 4 {
		t.Fatalf("occupied = %d/%d, want 4/4", c.Occupied(), c.ScanOccupied())
	}
}

// TestCuckooKickDisplacesToAlternate forces a displacement: with 1-way
// buckets, a flow whose both candidate buckets are {0} must kick the
// resident of bucket 0 to its alternate bucket.
func TestCuckooKickDisplacesToAlternate(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 2, Ways: 1, Stash: 2})
	if c.Buckets() != 2 {
		t.Fatalf("buckets = %d, want 2", c.Buckets())
	}
	cursor := 0
	resident := findKey(t, c, &cursor, 0, 1) // home 0, alternate 1
	insister := findKey(t, c, &cursor, 0, 0) // both choices are bucket 0

	er := activate(t, c, resident)
	er.PktCount = 99 // state that must survive the move
	checkKeyLine(t, c)
	ei := activate(t, c, insister)
	checkKeyLine(t, c) // the resident's key moved with it
	if got := c.Stats().Kicks; got != 1 {
		t.Fatalf("Kicks = %d, want 1", got)
	}
	if c.Stats().StashInserts != 0 {
		t.Fatalf("displacement used the stash: %+v", c.Stats())
	}
	if ei != &c.entries[0] {
		t.Fatal("insister did not land in its only candidate bucket")
	}
	// The displaced resident kept its state, now in bucket 1.
	moved, st := c.Acquire(resident)
	if st != StatusOwner || moved.PktCount != 99 {
		t.Fatalf("displaced resident lost state: (%v, pktCount %d)", st, moved.PktCount)
	}
	if moved != &c.entries[1] {
		t.Fatal("displaced resident is not in its alternate bucket")
	}
}

// TestCuckooStashOverflowEvictReject covers the full overflow ladder on a
// degenerate 1×1 table: bucket, then stash lines, then visible rejection —
// and pins that evicting or releasing a stash resident frees its line for
// the next overflow (the stash-leak property).
func TestCuckooStashOverflowEvictReject(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 1, Ways: 1, Stash: 2})
	k1, k2, k3, k4 := testKey(1), testKey(2), testKey(3), testKey(4)

	activate(t, c, k1)
	e2 := activate(t, c, k2) // no bucket way, no displacement path → stash
	checkKeyLine(t, c)
	e3 := activate(t, c, k3)
	checkKeyLine(t, c)
	st := c.Stats()
	if st.StashInserts != 2 || st.Stashed != 2 || st.Occupied != 3 {
		t.Fatalf("after overflow: %+v, want 2 stash inserts, 2 stashed, 3 occupied", st)
	}
	if !c.inStash(e2) || !c.inStash(e3) {
		t.Fatal("overflow entries are not stash lines")
	}

	// Table and stash full: the next flow is rejected, visibly.
	if e, status := c.Acquire(k4); e != nil || status != StatusFull {
		t.Fatalf("Acquire on full table = (%v, %v), want (nil, full)", e, status)
	}
	if got := c.Stats().Rejects; got != 1 {
		t.Fatalf("Rejects = %d, want 1", got)
	}
	checkKeyLine(t, c)
	// Rejection must not have perturbed resident flows.
	for _, k := range []flow.Key{k1, k2, k3} {
		if _, status := c.Acquire(k); status != StatusOwner {
			t.Fatalf("resident %v lost after rejection: %v", k, status)
		}
	}

	// Evicting a stash resident frees its line...
	if !c.Evict(k2) {
		t.Fatal("stash-resident eviction failed")
	}
	checkKeyLine(t, c)
	if st := c.Stats(); st.Stashed != 1 || st.Occupied != 2 {
		t.Fatalf("after stash evict: %+v, want 1 stashed, 2 occupied", st)
	}
	// ...and the freed line takes the next overflow.
	if e4 := activate(t, c, k4); !c.inStash(e4) {
		t.Fatal("freed stash line not reused")
	}
	checkKeyLine(t, c)
	// Release (the flow-end path) frees a stash line just like Evict.
	e3b, _ := c.Acquire(k3)
	c.Release(e3b)
	checkKeyLine(t, c)
	// Evicting the bucket resident clears its key line.
	if !c.Evict(k1) {
		t.Fatal("bucket-resident eviction failed")
	}
	checkKeyLine(t, c)
	if activate(t, c, k1) != &c.entries[0] {
		t.Fatal("evicted bucket cell not reused")
	}
	checkKeyLine(t, c)
	if st := c.Stats(); st.Stashed != 1 || st.Occupied != 2 {
		t.Fatalf("after stash release: %+v, want 1 stashed, 2 occupied", st)
	}
	if c.ScanOccupied() != c.Occupied() {
		t.Fatalf("scan %d != occupied %d", c.ScanOccupied(), c.Occupied())
	}
}

// TestCuckooStashDisabled: a negative Stash builds a pure bucket table —
// overflow rejects immediately (no stash lines, StashInserts stays zero),
// both when placement genuinely fails with free cells elsewhere and via the
// full-table fast path.
func TestCuckooStashDisabled(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 2, Ways: 1, Stash: -1})
	if c.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2 (no stash lines)", c.Cap())
	}
	cursor := 0
	a := findKey(t, c, &cursor, 0, 0)
	b := findKey(t, c, &cursor, 0, 0)
	activate(t, c, a)
	checkKeyLine(t, c)
	// b's only candidate bucket is full and unkickable (a's alternate is the
	// same bucket); bucket 1 is still free, so this is the partial-table
	// reject path, not the full-table short-circuit.
	if e, st := c.Acquire(b); e != nil || st != StatusFull {
		t.Fatalf("stash-less overflow = (%v, %v), want (nil, full)", e, st)
	}
	st := c.Stats()
	if st.Rejects != 1 || st.StashInserts != 0 || st.Stashed != 0 {
		t.Fatalf("stash-less reject stats: %+v", st)
	}
	checkKeyLine(t, c)
	// A flow homed on the free bucket still places...
	other := findKey(t, c, &cursor, 1, 1)
	activate(t, c, other)
	checkKeyLine(t, c)
	// ...after which the table is truly full and the fast path rejects
	// without searching.
	if _, status := c.Acquire(findKey(t, c, &cursor, 0, 1)); status != StatusFull {
		t.Fatalf("full-table Acquire = %v, want full", status)
	}
	if got := c.Stats().Rejects; got != 2 {
		t.Fatalf("Rejects = %d, want 2", got)
	}
	checkKeyLine(t, c)
}

// expiryWheel builds a timer wheel whose expiries release the entry back to
// the store — the pipeline's expiry callback, minus its counters.
func expiryWheel(s Store) *timerwheel.Wheel {
	return timerwheel.New(timerwheel.Config{OnExpire: func(n *timerwheel.Node) {
		s.Release(n.Data.(*Entry))
	}})
}

// TestCuckooWheelExpiryFreesStashLines pins the ageing arm on the stash: a
// stash resident whose wheel deadline passes is released through the
// store, which frees its line and decrements the stash gauge exactly like
// a bucket cell's expiry frees the cell.
func TestCuckooWheelExpiryFreesStashLines(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 1, Ways: 1, Stash: 2})
	w := expiryWheel(c)
	const idle = 10 * time.Second

	w.Schedule(activate(t, c, testKey(1)).Timer(), idle) // bucket resident
	stashed := activate(t, c, testKey(2))                // stash resident, fresher
	if !c.inStash(stashed) {
		t.Fatal("setup: second flow did not land in the stash")
	}
	w.Schedule(stashed.Timer(), time.Second+idle)
	checkKeyLine(t, c)

	// Advance to where only the bucket resident is idle.
	if got := w.Advance(idle); got != 1 {
		t.Fatalf("wheel expired %d, want 1 (bucket resident only)", got)
	}
	if st := c.Stats(); st.Stashed != 1 || st.Occupied != 1 {
		t.Fatalf("after first expiry: %+v", st)
	}
	checkKeyLine(t, c) // the expired bucket cell's key line is cleared
	// One second later the stash resident is idle too.
	if got := w.Advance(idle + time.Second); got != 1 {
		t.Fatalf("wheel expired %d, want 1 (stash resident)", got)
	}
	if st := c.Stats(); st.Stashed != 0 || st.Occupied != 0 {
		t.Fatalf("stash line leaked through wheel expiry: %+v", st)
	}
	checkKeyLine(t, c)
	// The reclaimed line is usable again.
	activate(t, c, testKey(3))
	checkKeyLine(t, c)
	activate(t, c, testKey(4))
	checkKeyLine(t, c)
	if c.Occupied() != 2 {
		t.Fatalf("occupied = %d after refill, want 2", c.Occupied())
	}
}

// TestCuckooChurnScanConsistency cross-checks the incremental gauges
// against full scans under a deterministic insert/release/evict churn at
// high load.
func TestCuckooChurnScanConsistency(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 64, Ways: 4, Stash: 4})
	rng := rand.New(rand.NewSource(11))
	live := make(map[flow.Key]bool)
	next := 0
	for step := 0; step < 4000; step++ {
		switch {
		case rng.Intn(3) != 0 && len(live) < 60:
			k := testKey(next)
			next++
			if e, st := c.Acquire(k); st == StatusFresh {
				e.SID = 1
				live[k] = true
			} else if st != StatusFull {
				t.Fatalf("step %d: Acquire(new) = %v", step, st)
			}
		case len(live) > 0:
			for k := range live {
				if !c.Evict(k) {
					t.Fatalf("step %d: live key %v not evictable", step, k)
				}
				delete(live, k)
				break
			}
		}
		if c.Occupied() != len(live) || c.ScanOccupied() != len(live) {
			t.Fatalf("step %d: occupied %d / scan %d, want %d",
				step, c.Occupied(), c.ScanOccupied(), len(live))
		}
		checkKeyLine(t, c)
	}
	// Every survivor is still found, with its own verified entry.
	for k := range live {
		if e, st := c.Acquire(k); st != StatusOwner || e.Key() != k {
			t.Fatalf("survivor %v: (%v, key %v)", k, st, e.Key())
		}
	}
}

// TestCuckooHighLoadFactorPlacesEverything pins the headline capacity win:
// at a 0.94 load factor — a regime where the direct scheme couples flows
// massively — the cuckoo scheme places every flow (no rejects, kicks doing
// real work) and verifies every lookup. Keys are drawn at random (fixed
// seed): sequential test keys inherit CRC32's linearity and spread
// unrealistically evenly, which would leave the displacement path idle.
func TestCuckooHighLoadFactorPlacesEverything(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 1024, Ways: 4, Stash: 8})
	rng := rand.New(rand.NewSource(3))
	idx := make(map[int]bool)
	for len(idx) < 960 { // LF 0.9375 of bucket cells
		idx[rng.Intn(1<<22)] = true
	}
	for i := range idx {
		e, st := c.Acquire(testKey(i))
		if st != StatusFresh {
			t.Fatalf("flow %d: %v (stats %+v)", i, st, c.Stats())
		}
		e.SID = 1
	}
	st := c.Stats()
	if st.Rejects != 0 {
		t.Fatalf("high-load fill rejected %d flows: %+v", st.Rejects, st)
	}
	if st.Occupied != len(idx) {
		t.Fatalf("occupied %d, want %d", st.Occupied, len(idx))
	}
	if st.Kicks == 0 {
		t.Fatal("a 0.94 load factor fill performed no displacements — kick path untested")
	}
	checkKeyLine(t, c)
	for i := range idx {
		if e, status := c.Acquire(testKey(i)); status != StatusOwner || e.Key() != testKey(i) {
			t.Fatalf("flow %d lost after fill: %v", i, status)
		}
	}
}

// TestCuckooDeterministic pins that placement is a pure function of the
// insert sequence — the property that keeps engine digests reproducible.
func TestCuckooDeterministic(t *testing.T) {
	build := func() Stats {
		c := NewCuckoo(CuckooConfig{Capacity: 128, Ways: 2, Stash: 4})
		for i := 0; i < 120; i++ {
			if e, st := c.Acquire(testKey(i)); st == StatusFresh {
				e.SID = 1
			}
		}
		for i := 0; i < 120; i += 3 {
			c.Evict(testKey(i))
		}
		for i := 200; i < 260; i++ {
			if e, st := c.Acquire(testKey(i)); st == StatusFresh {
				e.SID = 1
			}
		}
		return c.Stats()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same sequence, different stats: %+v vs %+v", a, b)
	}
}

// TestOracleExactness: the oracle never shares, never rejects, and releases
// cleanly.
func TestOracleExactness(t *testing.T) {
	o := NewOracle()
	for i := 0; i < 1000; i++ {
		activate(t, o, testKey(i))
	}
	if o.Occupied() != 1000 || o.ScanOccupied() != 1000 {
		t.Fatalf("occupied %d/%d, want 1000", o.Occupied(), o.ScanOccupied())
	}
	if st := o.Stats(); st.Kicks != 0 || st.Rejects != 0 || st.Stashed != 0 {
		t.Fatalf("oracle reported bounded-scheme counters: %+v", st)
	}
	e, st := o.Acquire(testKey(7))
	if st != StatusOwner || e.Key() != testKey(7) {
		t.Fatalf("oracle lookup: %v", st)
	}
	o.Release(e)
	if o.Evict(testKey(7)) {
		t.Fatal("released entry still evictable")
	}
	if !o.Evict(testKey(8)) || o.Occupied() != 998 {
		t.Fatal("oracle eviction failed")
	}
	// Wheel expiry releases oracle entries too: arm every entry, then push
	// the first 500 keys' deadlines out (re-activating the two freed
	// above), leaving the rest due.
	w := expiryWheel(o)
	o.Walk(func(e *Entry) { w.Schedule(e.Timer(), 30*time.Minute) })
	for i := 0; i < 500; i++ {
		e, st := o.Acquire(testKey(i))
		if st == StatusFresh {
			e.SID = 1
		}
		w.Schedule(e.Timer(), time.Hour+30*time.Minute)
	}
	got := w.Advance(time.Hour + time.Minute)
	if got != 500 || o.Occupied() != 500 {
		t.Fatalf("oracle expiry reclaimed %d (occupied %d), want 500 (500)", got, o.Occupied())
	}
}

// TestBucketHashMatchesDispatchHash pins bucketPair's documented
// derivation: for canonical keys, the second hash must be exactly the high
// half of the dispatch hash (flow.Key.ShardHash), so the decorrelation
// argument — h2 independent of both h1 and shard choice — stays true.
func TestBucketHashMatchesDispatchHash(t *testing.T) {
	c := NewCuckoo(CuckooConfig{Capacity: 4096, Ways: 4})
	for i := 0; i < 2000; i++ {
		k := testKey(i)
		_, b2 := c.bucketPair(k.Hash())
		want := int(uint32(k.ShardHash()>>32) % uint32(c.Buckets()))
		if b2 != want {
			t.Fatalf("key %v: b2 = %d, want %d (mix64 drifted from flow.Key.ShardHash)", k, b2, want)
		}
	}
}

// TestStatusString covers the diagnostic names.
func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusOwner: "owner", StatusFresh: "fresh",
		StatusShared: "shared", StatusFull: "full", Status(99): "status(?)",
	}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(st), st.String(), s)
		}
	}
}

// TestEntrySize pins the per-flow register footprint on 64-bit hosts: the
// timer node's filed tick took the place of the removed touch stamp, so an
// entry stays at 456 bytes. Growth multiplies across every table cell.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("entry layout pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Entry{}); got > 456 {
		t.Fatalf("sizeof(Entry) = %d, want <= 456", got)
	}
}
