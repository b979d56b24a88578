package dataplane

import (
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/trace"
)

// collisionFixture builds a deployment template plus a workload engineered
// to contend for `groups` direct-table indices of a `slots`-slot table, at
// a load factor ≥ 0.5 — the regime where the direct scheme couples flows.
func collisionFixture(t *testing.T, slots, groups int) (Config, []trace.LabeledFlow) {
	t.Helper()
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 3, NumClasses: 4}
	pl, _, _ := deploy(t, trace.D2, 300, cfg, slots)
	dcfg := pl.cfg
	// More flows than half the table, all contending for `groups` slots.
	return dcfg, trace.Colliding(trace.D2, 56, 9, slots, groups)
}

// replayScheme runs the workload through a fresh pipeline of the given
// scheme, returning the digest multiset, final stats, and the peak
// concurrent occupancy observed (for the load-factor bound).
func replayScheme(t *testing.T, dcfg Config, scheme TableScheme, pkts []trace.LabeledFlow) (map[Digest]int, Stats, int) {
	t.Helper()
	cfg := dcfg
	cfg.Table = scheme
	pl, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", scheme, err)
	}
	digests := make(map[Digest]int)
	peak := 0
	for _, p := range trace.Interleave(pkts, 50*time.Microsecond) {
		if d := pl.Process(p); d != nil {
			digests[*d]++
		}
		if a := pl.ActiveFlows(); a > peak {
			peak = a
		}
	}
	return digests, pl.Stats(), peak
}

// sameDigests reports whether two digest multisets are identical.
func sameDigests(a, b map[Digest]int) bool {
	if len(a) != len(b) {
		return false
	}
	for d, n := range a {
		if b[d] != n {
			return false
		}
	}
	return true
}

// TestCuckooMatchesOracleUnderCollisions is the scheme's headline
// single-pipeline property: on a workload engineered to collide in a small
// table at load factor ≥ 0.5, the cuckoo scheme's digests and inference
// counters are exactly the unbounded oracle's — collisions no longer couple
// flows — while the direct scheme demonstrably diverges on the same
// packets (the regression leg that proves the workload bites).
func TestCuckooMatchesOracleUnderCollisions(t *testing.T) {
	const slots, groups = 96, 2
	dcfg, flows := collisionFixture(t, slots, groups)

	oracleDigests, oracleStats, peak := replayScheme(t, dcfg, TableOracle, flows)
	if peak*2 < slots {
		t.Fatalf("workload too sparse: peak %d concurrent flows on a %d-slot table (LF %.2f < 0.5)",
			peak, slots, float64(peak)/float64(slots))
	}
	if oracleStats.Collisions != 0 {
		t.Fatalf("oracle counted %d collisions", oracleStats.Collisions)
	}

	cuckooDigests, cuckooStats, _ := replayScheme(t, dcfg, TableCuckoo, flows)
	if cuckooStats.Collisions != 0 {
		t.Fatalf("cuckoo rejected flows on the colliding workload: %d collision packets (stats %+v)",
			cuckooStats.Collisions, cuckooStats)
	}
	if !sameDigests(cuckooDigests, oracleDigests) {
		t.Fatalf("cuckoo digest multiset diverges from oracle: %d distinct vs %d",
			len(cuckooDigests), len(oracleDigests))
	}
	// The inference counters must agree too (placement counters excluded:
	// the oracle never kicks or stashes).
	if cuckooStats.Packets != oracleStats.Packets ||
		cuckooStats.ControlPackets != oracleStats.ControlPackets ||
		cuckooStats.Digests != oracleStats.Digests ||
		cuckooStats.RecircBytes != oracleStats.RecircBytes {
		t.Fatalf("cuckoo inference stats diverge from oracle:\n%+v\n%+v", cuckooStats, oracleStats)
	}

	directDigests, directStats, _ := replayScheme(t, dcfg, TableDirect, flows)
	if directStats.Collisions == 0 {
		t.Fatal("direct scheme saw no collisions on the engineered workload")
	}
	if sameDigests(directDigests, oracleDigests) {
		t.Fatal("direct scheme matched the oracle under collisions — the regression leg lost its teeth")
	}
}

// TestTableSchemeValidation covers the Config.Table knob's contract:
// parseable names, rejection of unknown schemes and negative geometry, and
// the cuckoo capacity guarantee (at least FlowSlots bucket cells).
func TestTableSchemeValidation(t *testing.T) {
	for _, s := range []string{"", "direct", "cuckoo", "oracle"} {
		if _, err := ParseTableScheme(s); err != nil {
			t.Fatalf("ParseTableScheme(%q): %v", s, err)
		}
	}
	if _, err := ParseTableScheme("lossy"); err == nil {
		t.Fatal("unknown scheme accepted")
	}

	dcfg, _ := ageingDeploy(t, 1000, 0)
	bad := dcfg
	bad.Table = "lossy"
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted an unknown table scheme")
	}
	neg := dcfg
	neg.Table = TableCuckoo
	neg.Ways = -1
	if _, err := New(neg); err == nil {
		t.Fatal("New accepted negative ways")
	}

	// Negative Stash is the documented stash-less deployment, not an error.
	bare := dcfg
	bare.Table = TableCuckoo
	bare.Ways = 4
	bare.Stash = -1
	pb, err := New(bare)
	if err != nil {
		t.Fatalf("New(stash-less cuckoo): %v", err)
	}
	if got := pb.TableCap(); got != 1000 {
		t.Fatalf("stash-less TableCap = %d, want 1000 (bucket cells only)", got)
	}

	cuckoo := dcfg
	cuckoo.Table = TableCuckoo
	cuckoo.Ways = 4
	cuckoo.Stash = 8
	pl, err := New(cuckoo)
	if err != nil {
		t.Fatalf("New(cuckoo): %v", err)
	}
	// 1000 slots round up to 250 4-way buckets plus the stash.
	if got := pl.TableCap(); got != 1000+8 {
		t.Fatalf("cuckoo TableCap = %d, want 1008", got)
	}
	if pl.TableStats().Occupied != 0 {
		t.Fatalf("fresh table occupied %d", pl.TableStats().Occupied)
	}
}

// TestCuckooShardsSplitBudget pins NewShards on the cuckoo scheme: the
// FlowSlots budget still splits with the remainder distributed, each shard
// rounding its share up to whole buckets.
func TestCuckooShardsSplitBudget(t *testing.T) {
	dcfg, _ := ageingDeploy(t, 1000, 0)
	dcfg.Table = TableCuckoo
	dcfg.Ways = 4
	dcfg.Stash = 4
	shards, err := NewShards(dcfg, 3)
	if err != nil {
		t.Fatalf("NewShards: %v", err)
	}
	// 1000/3 → 334, 333, 333; each rounds up to whole 4-way buckets (336,
	// 336, 336) plus 4 stash lines.
	for i, s := range shards {
		if got := s.TableCap(); got != 336+4 {
			t.Fatalf("shard %d TableCap = %d, want 340", i, got)
		}
	}
}
