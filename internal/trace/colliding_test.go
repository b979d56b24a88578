package trace

import (
	"testing"

	"splidt/internal/flow"
)

// TestCollidingHitsTargetIndices: every engineered flow must land on one of
// the first `groups` indices of the direct table, under the same symmetric
// hash the dataplane indexes with, with all keys distinct and canonical.
func TestCollidingHitsTargetIndices(t *testing.T) {
	const tableSize, groups = 96, 2
	flows := Colliding(D2, 56, 9, tableSize, groups)
	if len(flows) != 56 {
		t.Fatalf("got %d flows, want 56", len(flows))
	}
	seen := make(map[uint32]bool)
	keys := make(map[string]bool)
	for _, f := range flows {
		idx := f.Key.SymHash() % tableSize
		if int(idx) >= groups {
			t.Fatalf("flow %v hashes to index %d, want < %d", f.Key, idx, groups)
		}
		seen[idx] = true
		if !f.Key.IsCanonical() {
			t.Fatalf("flow key %v not canonical", f.Key)
		}
		if keys[f.Key.String()] {
			t.Fatalf("duplicate key %v", f.Key)
		}
		keys[f.Key.String()] = true
	}
	if len(seen) != groups {
		t.Fatalf("flows landed on %d distinct indices, want all %d groups used", len(seen), groups)
	}
	// Divisibility: the collision property must survive a 4-way shard split
	// (96 % 4 == 0, groups ≤ 96/4).
	for _, f := range flows {
		if idx := f.Key.SymHash() % (tableSize / 4); int(idx) >= groups {
			t.Fatalf("flow %v escapes the collision set on a 4-shard split (index %d)", f.Key, idx)
		}
	}
}

// TestCollidingPreservesFlowBodies: only the 5-tuples change — packet
// timing, sizes, flags, labels, and per-packet direction structure must be
// exactly Generate's, and every packet must carry its flow's rewritten key
// (or its reverse) plus the matching precomputed dispatch hash.
func TestCollidingPreservesFlowBodies(t *testing.T) {
	base := Generate(D2, 30, 5)
	coll := Colliding(D2, 30, 5, 64, 4)
	if len(base) != len(coll) {
		t.Fatalf("flow count %d != %d", len(coll), len(base))
	}
	for i := range base {
		b, c := base[i], coll[i]
		if b.Label != c.Label || len(b.Packets) != len(c.Packets) {
			t.Fatalf("flow %d: label/size changed (%d/%d vs %d/%d)",
				i, c.Label, len(c.Packets), b.Label, len(b.Packets))
		}
		rev := c.Key.Reverse()
		for j := range b.Packets {
			bp, cp := b.Packets[j], c.Packets[j]
			if bp.TS != cp.TS || bp.Len != cp.Len || bp.Seq != cp.Seq ||
				bp.FlowSize != cp.FlowSize || bp.Flags != cp.Flags {
				t.Fatalf("flow %d packet %d: body changed", i, j)
			}
			if cp.Key != c.Key && cp.Key != rev {
				t.Fatalf("flow %d packet %d: key %v is neither %v nor its reverse", i, j, cp.Key, c.Key)
			}
			// Direction preserved: forward stays forward.
			if (bp.Key == b.Key) != (cp.Key == c.Key) {
				t.Fatalf("flow %d packet %d: direction flipped", i, j)
			}
			if cp.ShardHash != c.Key.ShardHash() {
				t.Fatalf("flow %d packet %d: stale dispatch hash", i, j)
			}
			if uint32(flow.Unmix64(cp.ShardHash)) != cp.Key.Canonical().Hash() {
				t.Fatalf("flow %d packet %d: dispatch hash does not un-mix to the register hash", i, j)
			}
		}
	}
}

// TestCollidingDeterministic: same arguments, same workload; different
// seeds, different keys.
func TestCollidingDeterministic(t *testing.T) {
	a := Colliding(D3, 20, 7, 128, 3)
	b := Colliding(D3, 20, 7, 128, 3)
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("flow %d: keys differ across identical calls", i)
		}
	}
	c := Colliding(D3, 20, 8, 128, 3)
	same := 0
	for i := range a {
		if a[i].Key == c[i].Key {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical keys")
	}
}

// TestCollidingPanics covers the argument contract.
func TestCollidingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero flows":     func() { Colliding(D2, 0, 1, 16, 1) },
		"zero table":     func() { Colliding(D2, 4, 1, 0, 1) },
		"zero groups":    func() { Colliding(D2, 4, 1, 16, 0) },
		"groups > table": func() { Colliding(D2, 4, 1, 16, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
