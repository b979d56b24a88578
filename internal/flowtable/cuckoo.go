package flowtable

import "splidt/internal/flow"

// Cuckoo scheme defaults.
const (
	// DefaultWays is the bucket associativity: 4-way buckets are the
	// standard cuckoo sweet spot (load factors past 0.9 with two hashes).
	DefaultWays = 4
	// DefaultStash is the overflow stash capacity — a handful of lines, the
	// way hardware cuckoo engines back their tables with a tiny CAM.
	DefaultStash = 8
	// DefaultMaxProbe bounds the breadth-first displacement search: the
	// number of cells one insert may examine before falling back to the
	// stash. It bounds insert latency the way bounded kick chains do in
	// rte_hash/libcuckoo.
	DefaultMaxProbe = 128
)

// CuckooConfig sizes a cuckoo store.
type CuckooConfig struct {
	// Capacity is the target number of bucket cells (the register budget the
	// deployment allocates). It is rounded up to a whole number of buckets,
	// so the built table holds at least Capacity entries before the stash.
	Capacity int
	// Ways is the bucket associativity (default DefaultWays).
	Ways int
	// Stash is the overflow stash line count: 0 selects DefaultStash, any
	// negative value disables the stash entirely (a pure bucket table, e.g.
	// to model hardware with no CAM backing or to measure the stash's
	// contribution — overflow then rejects immediately).
	Stash int
	// MaxProbe is the displacement-search cell budget per insert (default
	// DefaultMaxProbe).
	MaxProbe int
}

// Cuckoo is a d-way set-associative flow table with cuckoo-style
// displacement and a bounded overflow stash. Each flow has two candidate
// buckets derived from the dispatch hash (h1 is the same CRC32 index the
// direct scheme uses; h2 is the high half of the splitmix64-scrambled
// dispatch hash, statistically independent of both h1 and shard choice).
// Every entry stores its full key and every lookup verifies it, so flows
// never share state: where the direct scheme silently couples colliding
// flows, Cuckoo either places a flow in one of its 2×Ways cells (displacing
// residents along a bounded breadth-first eviction path), parks it in the
// stash, or — only when all of that fails — rejects it, visibly, in
// Stats.Rejects.
//
// Keys are also kept out of line, in a dense key line parallel to the
// bucket cells (the rte_hash/libcuckoo hot/cold split): 16 bytes per cell,
// so a 4-way bucket's keys share one 64-byte cache line. A probe scans that
// line and touches an Entry — whose SID and key sit several cache lines
// apart — only on a key match, or on a zero key when it looks for a free
// cell. Stash lines keep their in-entry keys: the stash is scanned only
// while it holds something.
type Cuckoo struct {
	ways    int
	buckets int
	entries []Entry // buckets × ways; bucket b is entries[b*ways:(b+1)*ways]
	// keys[i] is entries[i]'s key while the cell is live and the zero key
	// while it is free. Every path that claims, moves or frees a bucket cell
	// updates both.
	keys     []flow.Key
	stash    []Entry
	occupied int
	stashed  int
	maxProbe int
	stats    Stats

	// Displacement-search scratch, preallocated so inserts never allocate.
	queue  []int32 // BFS frontier: indices of occupied cells to free
	parent []int32 // queue index whose occupant's alternate bucket holds this cell
	seen   []bool  // per-cell enqueued marker, cleared after each search
}

// StashLines resolves a configured stash size to the line count a cuckoo
// store will actually build: 0 selects DefaultStash, negative disables the
// stash. Exported so front ends can report the effective geometry without
// re-implementing the rule.
func StashLines(configured int) int {
	if configured < 0 {
		return 0
	}
	if configured == 0 {
		return DefaultStash
	}
	return configured
}

// NewCuckoo builds a cuckoo store.
func NewCuckoo(cfg CuckooConfig) *Cuckoo {
	if cfg.Capacity <= 0 {
		panic("flowtable: non-positive cuckoo capacity")
	}
	ways := cfg.Ways
	if ways <= 0 {
		ways = DefaultWays
	}
	stash := StashLines(cfg.Stash)
	probe := cfg.MaxProbe
	if probe <= 0 {
		probe = DefaultMaxProbe
	}
	buckets := (cfg.Capacity + ways - 1) / ways
	t := &Cuckoo{
		ways:     ways,
		buckets:  buckets,
		entries:  make([]Entry, buckets*ways),
		keys:     make([]flow.Key, buckets*ways),
		stash:    make([]Entry, stash),
		maxProbe: probe,
	}
	t.queue = make([]int32, 0, probe)
	t.parent = make([]int32, 0, probe)
	t.seen = make([]bool, len(t.entries))
	return t
}

// bucketPair derives the two candidate buckets from the canonical key's
// register hash h1 (k.Hash(), the direct scheme's index function); h2 is
// the high half of the dispatch hash — splitmix64(h1), exactly k.ShardHash()
// for a canonical key — whose low half drives shard selection, so h2 stays
// decorrelated from both h1 and the shard. The pair is cached on the entry
// at claim time, so displacement searches never rehash residents.
//
//splidt:hotpath
func (t *Cuckoo) bucketPair(h1 uint32) (int, int) {
	b1 := int(h1 % uint32(t.buckets))
	b2 := int(uint32(flow.Mix64(uint64(h1))>>32) % uint32(t.buckets))
	return b1, b2
}

// altBucket returns the other candidate bucket of a resident entry, read
// from the pair cached at claim time.
//
//splidt:hotpath
func (t *Cuckoo) altBucket(e *Entry, cur int) int {
	if cur == int(e.hb1) {
		return int(e.hb2)
	}
	return int(e.hb1)
}

// match returns the live cell of bucket b that holds k, or -1. It scans
// the bucket's key line and reads an entry's SID only where the key
// matches (a zero k also matches free cells, which the SID rules out).
//
//splidt:hotpath
func (t *Cuckoo) match(k flow.Key, b int) int {
	base := b * t.ways
	for w, key := range t.keys[base : base+t.ways] {
		if key == k && t.entries[base+w].SID != 0 {
			return base + w
		}
	}
	return -1
}

// lookup finds the flow's entry in its candidate buckets (or the stash)
// with full key verification, or nil.
//
//splidt:hotpath
func (t *Cuckoo) lookup(k flow.Key, b1, b2 int) *Entry {
	if i := t.match(k, b1); i >= 0 {
		return &t.entries[i]
	}
	if b2 != b1 {
		if i := t.match(k, b2); i >= 0 {
			return &t.entries[i]
		}
	}
	if t.stashed > 0 {
		for i := range t.stash {
			e := &t.stash[i]
			if e.SID != 0 && e.key == k {
				return e
			}
		}
	}
	return nil
}

// freeWay returns an empty cell of bucket b, or -1. It scans the bucket's
// key line and reads an entry's SID only under a zero key (which a live
// flow with the zero key could also hold).
//
//splidt:hotpath
func (t *Cuckoo) freeWay(b int) int {
	base := b * t.ways
	for w, key := range t.keys[base : base+t.ways] {
		if key == (flow.Key{}) && t.entries[base+w].SID == 0 {
			return base + w
		}
	}
	return -1
}

// insert claims a cell for k: a free way in either candidate bucket, a cell
// cleared by displacing residents along a breadth-first eviction path
// (bounded by maxProbe examined cells), or a stash line. Returns nil when
// all three fail. The search phase is read-only, so a failed insert never
// perturbs resident flows — an entry is only ever moved to a cell it is
// about to occupy, which is what keeps rejection safe under a full stash.
//
// A completely full table short-circuits before any scan: under sustained
// overload every packet of every stateless flow retries its insert, and
// paying the bounded BFS budget per packet just to rediscover that zero
// cells exist would cut hot-path throughput exactly when the table is
// saturated. (A partially full table still pays the search — a failed
// search for one key says nothing about another key's buckets.)
//
//splidt:hotpath
func (t *Cuckoo) insert(k flow.Key, b1, b2 int) *Entry {
	if t.occupied == len(t.entries)+len(t.stash) {
		t.stats.Rejects++
		return nil
	}
	var e *Entry
	i := t.freeWay(b1)
	if i < 0 && b2 != b1 {
		i = t.freeWay(b2)
	}
	if i < 0 {
		i = t.searchAndKick(b1, b2)
	}
	if i >= 0 {
		e = &t.entries[i]
		t.keys[i] = k
	} else {
		for j := range t.stash {
			if t.stash[j].SID == 0 {
				e = &t.stash[j]
				t.stashed++
				t.stats.StashInserts++
				break
			}
		}
	}
	if e == nil {
		t.stats.Rejects++
		return nil
	}
	e.key = k
	e.hb1, e.hb2 = int32(b1), int32(b2)
	e.timer.Data = e
	return e
}

// searchAndKick runs the bounded breadth-first displacement search from the
// two (fully occupied) candidate buckets and, if it finds a path to a free
// cell, applies the chain of moves — each resident hops, key line and all,
// to a free cell in its own alternate bucket — and returns the index of the
// freed root cell. -1 when no path exists within the probe budget.
//
//splidt:hotpath
func (t *Cuckoo) searchAndKick(b1, b2 int) int {
	q, par := t.queue[:0], t.parent[:0]
	enqueue := func(b int, p int32) {
		base := b * t.ways
		for w := 0; w < t.ways && len(q) < t.maxProbe; w++ {
			ci := int32(base + w)
			if !t.seen[ci] {
				t.seen[ci] = true
				// Both appends land in scratch preallocated to maxProbe cap
				// (NewCuckoo) and the loop guard caps len(q) below it, so the
				// backing arrays never grow.
				q = append(q, ci) //splidt:allow append — bounded by maxProbe into preallocated scratch
				par = append(par, p)
			}
		}
	}
	enqueue(b1, -1)
	if b2 != b1 {
		enqueue(b2, -1)
	}
	hit, free := -1, int32(-1)
search:
	for i := 0; i < len(q); i++ {
		alt := t.altBucket(&t.entries[q[i]], int(q[i])/t.ways)
		if f := t.freeWay(alt); f >= 0 {
			hit, free = i, int32(f)
			break search
		}
		enqueue(alt, int32(i))
	}
	root := -1
	if hit >= 0 {
		// Apply the path back to front: the hit cell's occupant moves to the
		// free cell, each ancestor's occupant moves into the cell its child
		// vacated, and the root cell (in b1 or b2) ends up free.
		cur, dst := hit, free
		for {
			src := q[cur]
			t.entries[dst] = t.entries[src]
			t.keys[dst] = t.keys[src]
			// The copy carries the entry's armed timer node; repoint the
			// node's back-pointer and its list neighbours at the new cell
			// before the stale source is zeroed (plain zero, never Unlink —
			// the links now belong to the copy).
			moved := &t.entries[dst]
			moved.timer.Data = moved
			moved.timer.Relink()
			t.entries[src] = Entry{}
			t.keys[src] = flow.Key{}
			t.stats.Kicks++
			dst = src
			if par[cur] < 0 {
				break
			}
			cur = int(par[cur])
		}
		root = int(dst)
	}
	for _, ci := range q {
		t.seen[ci] = false
	}
	t.queue, t.parent = q[:0], par[:0]
	return root
}

// Acquire implements Store.
//
//splidt:hotpath
func (t *Cuckoo) Acquire(k flow.Key) (*Entry, Status) { return t.AcquireHashed(k, k.Hash()) }

// AcquireHashed implements Store: verified lookup, then placement. The
// bucket pair is derived once per call from h and threaded through both
// phases.
//
//splidt:hotpath
func (t *Cuckoo) AcquireHashed(k flow.Key, h uint32) (*Entry, Status) {
	b1, b2 := t.bucketPair(h)
	if e := t.lookup(k, b1, b2); e != nil {
		return e, StatusOwner
	}
	if e := t.insert(k, b1, b2); e != nil {
		t.occupied++
		return e, StatusFresh
	}
	return nil, StatusFull
}

// cellOf returns the bucket cell index of a live entry, or -1 for a stash
// line. A bucket resident sits in one of its two cached candidate buckets,
// so at most 2×ways pointer compares find it.
//
//splidt:hotpath
func (t *Cuckoo) cellOf(e *Entry) int {
	for _, b := range [2]int32{e.hb1, e.hb2} {
		base := int(b) * t.ways
		for w := 0; w < t.ways; w++ {
			if e == &t.entries[base+w] {
				return base + w
			}
		}
	}
	return -1
}

// Release implements Store: a bucket cell's key line is cleared with it,
// and freeing a stash-resident entry frees its stash line for the next
// overflow.
//
//splidt:hotpath
func (t *Cuckoo) Release(e *Entry) {
	if i := t.cellOf(e); i >= 0 {
		t.keys[i] = flow.Key{}
	} else {
		t.stashed--
	}
	e.free()
	t.occupied--
}

// Evict implements Store: verified, so only the owning flow's entry —
// bucket- or stash-resident — is reclaimed.
//
//splidt:hotpath
func (t *Cuckoo) Evict(k flow.Key) bool {
	b1, b2 := t.bucketPair(k.Hash())
	e := t.lookup(k, b1, b2)
	if e == nil {
		return false
	}
	t.Release(e)
	return true
}

// Occupied implements Store.
func (t *Cuckoo) Occupied() int { return t.occupied }

// Cap implements Store: every cell a flow could occupy.
func (t *Cuckoo) Cap() int { return len(t.entries) + len(t.stash) }

// Ways returns the bucket associativity.
func (t *Cuckoo) Ways() int { return t.ways }

// Buckets returns the bucket count.
func (t *Cuckoo) Buckets() int { return t.buckets }

// Walk implements Store: bucket cells first, then the stash.
func (t *Cuckoo) Walk(fn func(*Entry)) {
	for i := range t.entries {
		if t.entries[i].SID != 0 {
			fn(&t.entries[i])
		}
	}
	for i := range t.stash {
		if t.stash[i].SID != 0 {
			fn(&t.stash[i])
		}
	}
}

// ScanOccupied implements Store.
func (t *Cuckoo) ScanOccupied() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].SID != 0 {
			n++
		}
	}
	for i := range t.stash {
		if t.stash[i].SID != 0 {
			n++
		}
	}
	return n
}

// Stats implements Store.
func (t *Cuckoo) Stats() Stats {
	s := t.stats
	s.Occupied = t.occupied
	s.Stashed = t.stashed
	return s
}
