package dataplane

import (
	"bytes"
	"io"
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/flow"
	"splidt/internal/metrics"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

func deploy(t *testing.T, id trace.DatasetID, n int, cfg core.Config, slots int) (*Pipeline, *core.Model, []trace.LabeledFlow) {
	t.Helper()
	flows := trace.Generate(id, n, 33)
	samples := trace.BuildSamples(flows, len(cfg.Partitions))
	train, _ := trace.Split(samples, 0.7)
	m, err := core.Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pl, err := New(Config{
		Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: slots,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Test on the held-out 30% of the underlying flows.
	testFlows := flows[int(float64(n)*0.7):]
	return pl, m, testFlows
}

func TestPipelineMatchesSoftwareModel(t *testing.T) {
	// The headline equivalence: per-packet pipeline execution must classify
	// every flow exactly as the software model does on its windows.
	cfg := core.Config{Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 13}
	pl, m, testFlows := deploy(t, trace.D3, 400, cfg, 1<<16)
	for _, f := range testFlows {
		var got *Digest
		for _, p := range f.Packets {
			if d := pl.Process(p); d != nil {
				if got != nil {
					t.Fatal("flow digested twice")
				}
				dd := *d
				got = &dd
			}
		}
		if got == nil {
			t.Fatal("flow never digested")
		}
		want := m.Classify(trace.BuildSamples([]trace.LabeledFlow{f}, len(cfg.Partitions))[0].Windows)
		if got.Class != want {
			t.Fatalf("pipeline class %d != software %d", got.Class, want)
		}
	}
}

func TestRecirculationCounts(t *testing.T) {
	cfg := core.Config{Partitions: []int{2, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 4}
	pl, m, testFlows := deploy(t, trace.D2, 300, cfg, 1<<16)
	for _, f := range testFlows {
		before := pl.Stats().ControlPackets
		for _, p := range f.Packets {
			pl.Process(p)
		}
		transitions := m.Transitions(trace.BuildSamples([]trace.LabeledFlow{f}, 3)[0].Windows)
		if got := pl.Stats().ControlPackets - before; got != transitions {
			t.Fatalf("control packets %d != software transitions %d", got, transitions)
		}
	}
	s := pl.Stats()
	if s.RecircBytes != s.ControlPackets*64 {
		t.Fatalf("recirc bytes %d != %d × 64", s.RecircBytes, s.ControlPackets)
	}
	if s.ControlPackets >= s.Packets {
		t.Fatal("control packets should be far fewer than data packets")
	}
}

func TestSlotFreedAfterDigest(t *testing.T) {
	cfg := core.Config{Partitions: []int{2}, FeaturesPerSubtree: 2, NumClasses: 4}
	pl, _, testFlows := deploy(t, trace.D2, 200, cfg, 1<<16)
	f := testFlows[0]
	for _, p := range f.Packets {
		pl.Process(p)
	}
	if pl.ActiveFlows() != 0 {
		t.Fatalf("%d slots still active after flow completed", pl.ActiveFlows())
	}
}

func TestCollisionCounting(t *testing.T) {
	// Two distinct flows forced into one slot (array of size 1).
	cfg := core.Config{Partitions: []int{2}, FeaturesPerSubtree: 2, NumClasses: 4}
	flows := trace.Generate(trace.D2, 100, 7)
	samples := trace.BuildSamples(flows, 1)
	m, err := core.Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := flows[0], flows[1]
	pl.Process(a.Packets[0])
	pl.Process(b.Packets[0]) // same slot, different owner
	if pl.Stats().Collisions == 0 {
		t.Fatal("collision not counted")
	}
}

func TestReplayAccuracy(t *testing.T) {
	cfg := core.Config{Partitions: []int{3, 3}, FeaturesPerSubtree: 4, NumClasses: 4}
	pl, _, testFlows := deploy(t, trace.D2, 400, cfg, 1<<18)
	results := pl.Replay(testFlows, 10*time.Millisecond)
	if len(results) != len(testFlows) {
		t.Fatalf("%d digests for %d flows", len(results), len(testFlows))
	}
	conf := metrics.NewConfusion(4)
	for _, r := range results {
		conf.Add(r.Label, r.Digest.Class)
	}
	if f1 := conf.MacroF1(); f1 < 0.5 {
		t.Fatalf("replay F1 %.3f too low", f1)
	}
	for _, r := range results {
		if r.Digest.TTD() < 0 {
			t.Fatal("negative TTD")
		}
		if r.Digest.Packets <= 0 {
			t.Fatal("digest without packets")
		}
	}
}

func TestInfeasibleDeploymentRejected(t *testing.T) {
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 6, NumClasses: 4}
	flows := trace.Generate(trace.D2, 100, 7)
	samples := trace.BuildSamples(flows, 2)
	m, err := core.Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// 100M flows at k=6 cannot fit Tofino1's register SRAM.
	if _, err := New(Config{
		Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 100_000_000,
	}); err == nil {
		t.Fatal("infeasible deployment accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := core.Config{Partitions: []int{2}, FeaturesPerSubtree: 2, NumClasses: 4}
	flows := trace.Generate(trace.D2, 60, 7)
	m, _ := core.Train(trace.BuildSamples(flows, 1), cfg)
	c, _ := rangemark.Compile(m)
	if _, err := New(Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 0}); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestDigestTTDPositiveOnOffsetFlows(t *testing.T) {
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 3, NumClasses: 4}
	pl, _, testFlows := deploy(t, trace.D2, 200, cfg, 1<<16)
	results := pl.Replay(testFlows, time.Second)
	for _, r := range results {
		d := r.Digest
		if d.At < d.Started {
			t.Fatalf("digest at %v before flow start %v", d.At, d.Started)
		}
	}
}

func BenchmarkProcess(b *testing.B) {
	cfg := core.Config{Partitions: []int{3, 3}, FeaturesPerSubtree: 4, NumClasses: 4}
	flows := trace.Generate(trace.D2, 400, 33)
	samples := trace.BuildSamples(flows, 2)
	m, err := core.Train(samples, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := New(Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	var pkts []int
	_ = pkts
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		f := flows[i%len(flows)]
		p := f.Packets[n%len(f.Packets)]
		pl.Process(p)
		if n%len(f.Packets) == len(f.Packets)-1 {
			i++
		}
	}
}

func TestProcessBytes(t *testing.T) {
	cfg := core.Config{Partitions: []int{2}, FeaturesPerSubtree: 2, NumClasses: 4}
	pl, _, testFlows := deploy(t, trace.D2, 200, cfg, 1<<16)
	f := testFlows[0]
	var got *Digest
	for _, p := range f.Packets {
		d, err := pl.ProcessBytes(pkt.Marshal(p, nil), p.TS)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			got = d
		}
	}
	if got == nil {
		t.Fatal("wire-fed flow never digested")
	}
	// Control packets are pipeline-internal.
	ctrl := pkt.MarshalControl(pkt.Control{NextSID: 2}, nil)
	if _, err := pl.ProcessBytes(ctrl, 0); err == nil {
		t.Fatal("control packet accepted from the wire")
	}
	if _, err := pl.ProcessBytes([]byte{1, 2, 3}, 0); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAdaptiveWindowPipelineMatchesSoftware(t *testing.T) {
	bounds := pkt.Bounds{0.2, 0.6, 1}
	flows := trace.Generate(trace.D2, 300, 33)
	samples := trace.BuildSamplesBounds(flows, bounds)
	train, _ := trace.Split(samples, 0.7)
	m, err := core.Train(train, core.Config{
		Partitions: []int{2, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 4,
		WindowBounds: bounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows[210:] {
		var got *Digest
		for _, p := range f.Packets {
			if d := pl.Process(p); d != nil {
				got = d
			}
		}
		if got == nil {
			t.Fatal("adaptive-window flow never digested")
		}
		want := m.Classify(trace.BuildSamplesBounds([]trace.LabeledFlow{f}, bounds)[0].Windows)
		if got.Class != want {
			t.Fatalf("adaptive pipeline class %d != software %d", got.Class, want)
		}
	}
}

func TestStatsAddAndMerge(t *testing.T) {
	a := Stats{Packets: 10, ControlPackets: 2, Digests: 3, Collisions: 1, RecircBytes: 128}
	b := Stats{Packets: 5, ControlPackets: 1, Digests: 2, Collisions: 0, RecircBytes: 64}
	want := Stats{Packets: 15, ControlPackets: 3, Digests: 5, Collisions: 1, RecircBytes: 192}
	if got := MergeStats(a, b); got != want {
		t.Fatalf("MergeStats = %+v, want %+v", got, want)
	}
	a.Add(b)
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if got := MergeStats(); got != (Stats{}) {
		t.Fatalf("MergeStats() = %+v, want zero", got)
	}
}

func TestNewShards(t *testing.T) {
	cfg := core.Config{Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 13}
	flows := trace.Generate(trace.D3, 400, 33)
	samples := trace.BuildSamples(flows, len(cfg.Partitions))
	train, _ := trace.Split(samples, 0.7)
	m, err := core.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	testFlows := flows[int(float64(len(flows))*0.7):]
	dcfg := Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 1 << 16}

	shards, err := NewShards(dcfg, 4)
	if err != nil {
		t.Fatalf("NewShards: %v", err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	for i, s := range shards {
		if got := s.TableCap(); got != 1<<14 {
			t.Fatalf("shard %d has %d slots, want %d (even split)", i, got, 1<<14)
		}
	}

	// Each replica independently classifies exactly like a solo pipeline.
	f := testFlows[0]
	var a, b *Digest
	for _, p := range f.Packets {
		if d := shards[0].Process(p); d != nil {
			a = d
		}
	}
	for _, p := range f.Packets {
		if d := shards[1].Process(p); d != nil {
			b = d
		}
	}
	if a == nil || b == nil || a.Class != b.Class {
		t.Fatalf("replicas disagree: %+v vs %+v", a, b)
	}

	if _, err := NewShards(dcfg, 0); err == nil {
		t.Fatal("NewShards(0) did not error")
	}
	bad := dcfg
	bad.Model = nil
	if _, err := NewShards(bad, 2); err == nil {
		t.Fatal("NewShards with nil model did not error")
	}
}

func TestActiveFlowsCounterMatchesScan(t *testing.T) {
	// ActiveFlows is maintained incrementally so live engine snapshots can
	// read it in O(1); it must agree with a register-array scan at every
	// point of a replay, including early-exit parking and slot frees.
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 3, NumClasses: 4}
	pl, _, testFlows := deploy(t, trace.D2, 300, cfg, 1<<16)
	for _, p := range trace.Interleave(testFlows, time.Millisecond) {
		pl.Process(p)
		if pl.ActiveFlows() != pl.countActiveSlots() {
			t.Fatalf("incremental ActiveFlows %d != scanned %d", pl.ActiveFlows(), pl.countActiveSlots())
		}
	}
	if pl.ActiveFlows() != 0 {
		t.Fatalf("%d flows active after all flows completed", pl.ActiveFlows())
	}
}

// TestRegisterHash pins the hash-once path's recovery and its fallbacks: a
// stamped dispatch hash un-mixes to the register hash, and an unstamped or
// impossible one (high bits set after un-mixing) falls back to hashing the
// key.
func TestRegisterHash(t *testing.T) {
	for _, f := range trace.Generate(trace.D2, 50, 5) {
		ck := f.Key.Canonical()
		want := ck.Hash()
		if got := registerHash(f.Key.ShardHash(), ck); got != want {
			t.Fatalf("%v: stamped hash gives %#x, want %#x", f.Key, got, want)
		}
		if got := registerHash(0, ck); got != want {
			t.Fatalf("%v: unstamped hash gives %#x, want %#x", f.Key, got, want)
		}
		bogus := flow.Mix64(uint64(want) | 1<<40)
		if got := registerHash(bogus, ck); got != want {
			t.Fatalf("%v: impossible hash gives %#x, want %#x", f.Key, got, want)
		}
	}
}

// TestStampedAndUnstampedPacketsAgree replays the same packets through two
// pipelines per table scheme, one with every dispatch hash stamped and one
// with every dispatch hash zeroed: digests and counters must be identical,
// on a direct table small enough to collide as well.
func TestStampedAndUnstampedPacketsAgree(t *testing.T) {
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 4, NumClasses: 4}
	flows := trace.Generate(trace.D2, 300, 21)
	m, err := core.Train(trace.BuildSamples(flows, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	pkts := trace.Interleave(flows, 50*time.Microsecond)
	for _, table := range []TableScheme{TableDirect, TableCuckoo} {
		build := func() *Pipeline {
			pl, err := New(Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 128, Table: table})
			if err != nil {
				t.Fatal(err)
			}
			return pl
		}
		stamped, bare := build(), build()
		for i, p := range pkts {
			if p.ShardHash == 0 {
				t.Fatal("generated packet carries no dispatch hash")
			}
			ds := stamped.Process(p)
			p.ShardHash = 0
			db := bare.Process(p)
			if (ds == nil) != (db == nil) || (ds != nil && *ds != *db) {
				t.Fatalf("%v packet %d: digests diverged: %+v vs %+v", table, i, ds, db)
			}
		}
		if stamped.Stats() != bare.Stats() || stamped.TableStats() != bare.TableStats() {
			t.Fatalf("%v: counters diverged: %+v / %+v vs %+v / %+v",
				table, stamped.Stats(), stamped.TableStats(), bare.Stats(), bare.TableStats())
		}
	}
}

// TestForgedRecordedHashIsIgnored replays one packet stream from two
// recordings: one with every dispatch hash correct, one with every hash
// forged as flow.Mix64 of a different CRC — a value the pipeline's un-mix
// check cannot reject, which would index the wrong slot or bucket pair if
// it reached the table. The record reader must stamp each packet's own
// hash, so digests, Evict results and counters are identical.
func TestForgedRecordedHashIsIgnored(t *testing.T) {
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 4, NumClasses: 4}
	flows := trace.Generate(trace.D2, 300, 23)
	m, err := core.Train(trace.BuildSamples(flows, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// Half the stream, so most flows still hold an entry to evict.
	pkts := trace.Interleave(flows, 50*time.Microsecond)
	pkts = pkts[:len(pkts)/2]
	record := func(forge bool) []pkt.Packet {
		var buf bytes.Buffer
		w, err := pkt.NewRecordWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if forge {
				p.ShardHash = flow.Mix64(uint64(p.Key.Canonical().Hash() ^ 0x5a5a5a5a))
			}
			if err := w.WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := pkt.NewRecordReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var out []pkt.Packet
		for {
			p, err := r.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	good, forged := record(false), record(true)
	if len(good) != len(pkts) || len(forged) != len(pkts) {
		t.Fatalf("decoded %d and %d packets, want %d", len(good), len(forged), len(pkts))
	}
	for _, table := range []TableScheme{TableDirect, TableCuckoo} {
		build := func() *Pipeline {
			pl, err := New(Config{Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 512, Table: table})
			if err != nil {
				t.Fatal(err)
			}
			return pl
		}
		plGood, plForged := build(), build()
		for i := range good {
			dg, df := plGood.Process(good[i]), plForged.Process(forged[i])
			if (dg == nil) != (df == nil) || (dg != nil && *dg != *df) {
				t.Fatalf("%v packet %d: digests diverged: %+v vs %+v", table, i, dg, df)
			}
		}
		if plGood.ActiveFlows() == 0 {
			t.Fatalf("%v: no flow left to evict", table)
		}
		for _, f := range flows {
			if eg, ef := plGood.Evict(f.Key), plForged.Evict(f.Key); eg != ef {
				t.Fatalf("%v: Evict(%v) = %v from the good recording, %v from the forged one", table, f.Key, eg, ef)
			}
		}
		if plGood.Stats() != plForged.Stats() || plGood.TableStats() != plForged.TableStats() {
			t.Fatalf("%v: counters diverged: %+v / %+v vs %+v / %+v",
				table, plGood.Stats(), plGood.TableStats(), plForged.Stats(), plForged.TableStats())
		}
		if n := plForged.ActiveFlows(); n != 0 {
			t.Fatalf("%v: %d flows still hold entries after evicting every flow", table, n)
		}
	}
}
