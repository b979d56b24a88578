package flowtable

import (
	"math/rand"
	"testing"
	"time"

	"splidt/internal/flow"
)

// TestAcquireHashedMatchesAcquire pins AcquireHashed(k, k.Hash()) to
// Acquire(k) on every scheme: two stores driven by the same seeded
// acquire/release/evict sequence, one through each entry point, return the
// same statuses and entries, count the same stats, and end with the same
// placement.
func TestAcquireHashedMatchesAcquire(t *testing.T) {
	schemes := map[string]func() Store{
		"direct": func() Store { return NewDirect(48) },
		"cuckoo": func() Store { return NewCuckoo(CuckooConfig{Capacity: 48, Ways: 4, Stash: 4}) },
		"oracle": func() Store { return NewOracle() },
	}
	for name, build := range schemes {
		t.Run(name, func(t *testing.T) {
			plain, hashed := build(), build()
			rng := rand.New(rand.NewSource(5))
			for step := 0; step < 5000; step++ {
				k := testKey(rng.Intn(96))
				switch rng.Intn(4) {
				case 0:
					if plain.Evict(k) != hashed.Evict(k) {
						t.Fatalf("step %d: Evict(%v) diverged", step, k)
					}
				default:
					ep, sp := plain.Acquire(k)
					eh, sh := hashed.AcquireHashed(k, k.Hash())
					if sp != sh || (ep == nil) != (eh == nil) {
						t.Fatalf("step %d: Acquire = %v, AcquireHashed = %v", step, sp, sh)
					}
					if ep == nil {
						break
					}
					if ep.Key() != eh.Key() || ep.PktCount != eh.PktCount {
						t.Fatalf("step %d: entries diverged: %v/%d vs %v/%d",
							step, ep.Key(), ep.PktCount, eh.Key(), eh.PktCount)
					}
					if sp == StatusFresh {
						ep.SID, eh.SID = 1, 1
					}
					ep.PktCount++
					eh.PktCount++
					if rng.Intn(5) == 0 && sp != StatusShared {
						plain.Release(ep)
						hashed.Release(eh)
					}
				}
				if plain.Stats() != hashed.Stats() {
					t.Fatalf("step %d: stats %+v vs %+v", step, plain.Stats(), hashed.Stats())
				}
			}
			if name == "oracle" {
				return // map iteration order is unspecified; stats and lookups pinned above
			}
			var a, b []flow.Key
			plain.Walk(func(e *Entry) { a = append(a, e.Key()) })
			hashed.Walk(func(e *Entry) { b = append(b, e.Key()) })
			if len(a) != len(b) {
				t.Fatalf("walks hold %d vs %d entries", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("placement diverged at walk position %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

// Operations FuzzCuckooOps decodes, one per input byte pair (op, arg).
const (
	opAcquire = iota
	opAcquireHashed
	opRelease
	opEvict
	opExpire
	numOps
)

// fuzzKeys is the fuzzer's small key universe: more flows than the tiny
// table has cells, so every bucket collides, plus the zero key, which a
// free cell's key line also holds.
func fuzzKeys() []flow.Key {
	keys := []flow.Key{{}}
	for i := 1; i < 16; i++ {
		keys = append(keys, testKey(i))
	}
	return keys
}

// FuzzCuckooOps decodes bytes into Acquire/AcquireHashed/Release/Evict/
// expire operations over a small colliding key set on a 4×2-cell cuckoo
// table with two stash lines, and runs the same sequence on an Oracle,
// each store with its own timer wheel. Flows the cuckoo rejects are not
// mirrored. After every operation it checks that statuses, entry state and
// expiries agree with the oracle, that the key line is coherent, and that
// the Occupied and Stashed gauges match a scan.
func FuzzCuckooOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 3, 2, 2, 5, 4, 9})
	f.Add([]byte{1, 0, 0, 0, 3, 0, 1, 0, 2, 0, 0, 1, 4, 200})
	rng := rand.New(rand.NewSource(9))
	long := make([]byte, 512)
	for i := range long {
		long[i] = byte(rng.Intn(256))
	}
	f.Add(long)

	keys := fuzzKeys()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCuckoo(CuckooConfig{Capacity: 8, Ways: 2, Stash: 2})
		o := NewOracle()
		cw, ow := expiryWheel(c), expiryWheel(o)
		var now time.Duration
		var tag uint32
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := int(data[i])%numOps, int(data[i+1])
			k := keys[arg%len(keys)]
			ref, live := o.flows[k]
			switch op {
			case opAcquire, opAcquireHashed:
				var e *Entry
				var st Status
				if op == opAcquire {
					e, st = c.Acquire(k)
				} else {
					e, st = c.AcquireHashed(k, k.Hash())
				}
				switch {
				case live:
					if st != StatusOwner || e == nil || e.Key() != k || e.PktCount != ref.PktCount {
						t.Fatalf("op %d: live %v: (%v, %+v), oracle pktCount %d", i/2, k, st, e, ref.PktCount)
					}
				case st == StatusFull:
					if e != nil || c.Stats().Stashed != len(c.stash) {
						t.Fatalf("op %d: %v rejected with a free stash line (%+v)", i/2, k, c.Stats())
					}
					continue
				case st == StatusFresh:
					if e.Key() != k || e.PktCount != 0 || e.Timer().Armed() {
						t.Fatalf("op %d: fresh entry not clean: %+v", i/2, e)
					}
					e.SID = 1
					ref, _ = o.Acquire(k)
					ref.SID = 1
				default:
					t.Fatalf("op %d: new flow %v got %v", i/2, k, st)
				}
				tag++
				e.PktCount, ref.PktCount = tag, tag
				deadline := now + time.Duration(1+arg%4)*time.Millisecond
				cw.Schedule(e.Timer(), deadline)
				ow.Schedule(ref.Timer(), deadline)
			case opRelease:
				if !live {
					continue
				}
				e, st := c.Acquire(k)
				if st != StatusOwner {
					t.Fatalf("op %d: live %v not found for release: %v", i/2, k, st)
				}
				c.Release(e)
				o.Release(ref)
			case opEvict:
				if got := c.Evict(k); got != live || o.Evict(k) != live {
					t.Fatalf("op %d: Evict(%v) = %v, oracle live %v", i/2, k, got, live)
				}
			case opExpire:
				now += time.Duration(arg%8) * time.Millisecond
				if got, want := cw.Advance(now), ow.Advance(now); got != want {
					t.Fatalf("op %d: cuckoo expired %d, oracle %d", i/2, got, want)
				}
			}
			checkKeyLine(t, c)
			stashed := 0
			for j := range c.stash {
				if c.stash[j].SID != 0 {
					stashed++
				}
			}
			st := c.Stats()
			if st.Occupied != o.Occupied() || c.ScanOccupied() != st.Occupied || st.Stashed != stashed {
				t.Fatalf("op %d: gauges %+v, scan %d, stash scan %d, oracle %d",
					i/2, st, c.ScanOccupied(), stashed, o.Occupied())
			}
			for key, r := range o.flows {
				b1, b2 := c.bucketPair(key.Hash())
				if e := c.lookup(key, b1, b2); e == nil || e.PktCount != r.PktCount {
					t.Fatalf("op %d: oracle flow %v missing or diverged in cuckoo", i/2, key)
				}
			}
		}
	})
}
