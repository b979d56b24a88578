package trace

import (
	"math/rand"
	"testing"
	"time"

	"splidt/internal/features"
	"splidt/internal/flow"
)

func TestSpecsCover(t *testing.T) {
	specs := Specs()
	wantClasses := map[DatasetID]int{D1: 19, D2: 4, D3: 13, D4: 11, D5: 32, D6: 10, D7: 10}
	for id, want := range wantClasses {
		s, ok := specs[id]
		if !ok {
			t.Fatalf("missing spec for %v", id)
		}
		if s.Classes != want {
			t.Errorf("%v classes = %d, want %d (paper Table 2)", id, s.Classes, want)
		}
	}
	if len(AllDatasets()) != 7 {
		t.Fatal("AllDatasets must list 7 datasets")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(D2, 20, 7)
	b := Generate(D2, 20, 7)
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("lengths %d/%d, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Label != b[i].Label || len(a[i].Packets) != len(b[i].Packets) {
			t.Fatalf("flow %d differs across identical seeds", i)
		}
		for j := range a[i].Packets {
			if a[i].Packets[j] != b[i].Packets[j] {
				t.Fatalf("flow %d packet %d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(D2, 10, 1)
	b := Generate(D2, 10, 2)
	same := true
	for i := range a {
		if len(a[i].Packets) != len(b[i].Packets) {
			same = false
			break
		}
	}
	if same && a[0].Key == b[0].Key {
		t.Fatal("different seeds produced identical flows")
	}
}

func TestGenerateClassBalance(t *testing.T) {
	n := 4 * 25
	fs := Generate(D2, n, 3)
	counts := map[int]int{}
	for _, f := range fs {
		counts[f.Label]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] != 25 {
			t.Fatalf("class %d has %d flows, want 25", c, counts[c])
		}
	}
}

func TestGeneratedFlowsWellFormed(t *testing.T) {
	for _, id := range AllDatasets() {
		fs := Generate(id, 2*NumClasses(id), 11)
		for _, f := range fs {
			if f.Label < 0 || f.Label >= NumClasses(id) {
				t.Fatalf("%v: label %d out of range", id, f.Label)
			}
			if len(f.Packets) < 4 {
				t.Fatalf("%v: flow with %d packets", id, len(f.Packets))
			}
			if !f.Key.IsCanonical() {
				t.Fatalf("%v: non-canonical flow key", id)
			}
			prev := time.Duration(-1)
			for i, p := range f.Packets {
				if p.Seq != i+1 {
					t.Fatalf("%v: packet seq %d at index %d", id, p.Seq, i)
				}
				if p.FlowSize != len(f.Packets) {
					t.Fatalf("%v: FlowSize %d != len %d", id, p.FlowSize, len(f.Packets))
				}
				if p.TS < prev {
					t.Fatalf("%v: timestamps not monotone", id)
				}
				prev = p.TS
				if p.Len < 40 || p.Len > 1500 {
					t.Fatalf("%v: packet length %d out of [40,1500]", id, p.Len)
				}
				if p.Key.Canonical() != f.Key {
					t.Fatalf("%v: packet key not of this flow", id)
				}
			}
		}
	}
}

func TestClassesAreSeparableByFlowFeatures(t *testing.T) {
	// Sanity: class centroids of at least one stateful feature must differ
	// markedly between some pair of classes (signal exists), while single
	// stateless fields stay overlapping (checked loosely via port pools).
	fs := Generate(D2, 200, 5)
	cent := make(map[int]features.Vector)
	cnt := make(map[int]int)
	for _, f := range fs {
		v := features.FlowVector(f.Packets)
		c := cent[f.Label]
		for i := range c {
			c[i] += v[i]
		}
		cent[f.Label] = c
		cnt[f.Label]++
	}
	maxRel := 0.0
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			va, vb := cent[a], cent[b]
			for i := 0; i < features.NumStateful; i++ {
				ma, mb := va[i]/float64(cnt[a]), vb[i]/float64(cnt[b])
				if ma+mb == 0 {
					continue
				}
				rel := (ma - mb) / (ma + mb)
				if rel < 0 {
					rel = -rel
				}
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
	}
	if maxRel < 0.2 {
		t.Fatalf("no feature separates any class pair (max relative gap %.3f)", maxRel)
	}
}

func TestBuildSamplesWindows(t *testing.T) {
	fs := Generate(D2, 40, 9)
	samples := BuildSamples(fs, 4)
	if len(samples) != 40 {
		t.Fatalf("got %d samples, want 40", len(samples))
	}
	for _, s := range samples {
		if len(s.Windows) == 0 || len(s.Windows) > 4 {
			t.Fatalf("sample has %d windows", len(s.Windows))
		}
	}
}

func TestSplit(t *testing.T) {
	fs := Generate(D2, 40, 9)
	samples := BuildSamples(fs, 1)
	train, test := Split(samples, 0.75)
	if len(train) != 30 || len(test) != 10 {
		t.Fatalf("split sizes %d/%d, want 30/10", len(train), len(test))
	}
}

func TestSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(-1) did not panic")
		}
	}()
	Split(nil, -0.5)
}

func TestSampleSetCaching(t *testing.T) {
	ss := NewSampleSet(D2, 24, 5, 77)
	a := ss.For(3)
	b := ss.For(3)
	if &a[0] != &b[0] {
		t.Fatal("SampleSet did not cache windowed samples")
	}
	if len(ss.Flows()) != 24 {
		t.Fatalf("Flows() = %d, want 24", len(ss.Flows()))
	}
	if ss.MaxParts() != 5 {
		t.Fatalf("MaxParts() = %d, want 5", ss.MaxParts())
	}
}

func TestSampleSetPanicsOutOfRange(t *testing.T) {
	ss := NewSampleSet(D2, 8, 3, 77)
	defer func() {
		if recover() == nil {
			t.Fatal("For(4) beyond maxParts did not panic")
		}
	}()
	ss.For(4)
}

func TestWorkloadDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range Workloads() {
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			s := w.SampleFlowSize(rng)
			if s < 2 {
				t.Fatalf("%s: flow size %d < 2", w.Name, s)
			}
			sum += float64(s)
		}
		mean := sum / float64(n)
		if mean < 0.6*w.MeanFlowPkts || mean > 1.6*w.MeanFlowPkts {
			t.Fatalf("%s: empirical mean size %.1f vs spec %.1f", w.Name, mean, w.MeanFlowPkts)
		}
	}
}

func TestWorkloadDurations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range Workloads() {
		var sum time.Duration
		n := 20000
		for i := 0; i < n; i++ {
			d := w.SampleDuration(rng)
			if d < time.Millisecond {
				t.Fatalf("%s: duration %v < 1ms", w.Name, d)
			}
			sum += d
		}
		mean := sum / time.Duration(n)
		if mean < w.MeanDuration/2 || mean > 2*w.MeanDuration {
			t.Fatalf("%s: empirical mean duration %v vs spec %v", w.Name, mean, w.MeanDuration)
		}
	}
}

func TestHadoopTurnsOverFasterThanWebserver(t *testing.T) {
	// The recirculation-bandwidth ratio in Table 5 (HD ≈ 2× WS) follows
	// from completion rates.
	if Hadoop.CompletionRate(1_000_000) <= Webserver.CompletionRate(1_000_000) {
		t.Fatal("Hadoop must complete flows faster than Webserver")
	}
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate(D2, 100, int64(i))
	}
}

func TestGeneratedPacketsCarryShardHash(t *testing.T) {
	// Every generated packet — both directions included — must carry the
	// flow's precomputed dispatch hash, so the engine's serial dispatch
	// stage never hashes. Stream and Generate share genFlow, so this covers
	// the lazy source too.
	for _, f := range Generate(D3, 50, 3) {
		want := f.Key.ShardHash()
		for _, p := range f.Packets {
			if p.ShardHash != want {
				t.Fatalf("flow %v: packet %d carries hash %d, want %d (dir reversed=%v)",
					f.Key, p.Seq, p.ShardHash, want, p.Key != f.Key)
			}
			if uint32(flow.Unmix64(p.ShardHash)) != p.Key.Canonical().Hash() {
				t.Fatalf("flow %v: packet %d hash does not un-mix to the register hash", f.Key, p.Seq)
			}
			if p.Shard(8) != f.Key.Shard(8) {
				t.Fatalf("flow %v: packet %d shards to %d, flow shards to %d",
					f.Key, p.Seq, p.Shard(8), f.Key.Shard(8))
			}
		}
	}
}
