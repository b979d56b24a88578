package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/pkt"
)

// BenchmarkChurnNext measures the in-memory generation path — the number to
// beat for wire ingest (decoding a recording must not be slower than
// generating the same packets).
func BenchmarkChurnNext(b *testing.B) {
	g, err := NewChurn(churnTestCfg(100_000, 1))
	if err != nil {
		b.Fatalf("NewChurn: %v", err)
	}
	for i := 0; i < 200_000; i++ { // warm wheel buckets to steady size
		g.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("exhausted")
		}
	}
}

// BenchmarkWireNext measures zero-copy wire ingest: per-packet cost of
// decoding a recorded stream back into engine-ready packets.
func BenchmarkWireNext(b *testing.B) {
	g, err := NewChurn(churnTestCfg(10_000, 2))
	if err != nil {
		b.Fatalf("NewChurn: %v", err)
	}
	var buf bytes.Buffer
	w, err := pkt.NewRecordWriter(&buf)
	if err != nil {
		b.Fatalf("NewRecordWriter: %v", err)
	}
	for i := 0; i < 100_000; i++ {
		p, _ := g.Next()
		if err := w.WritePacket(p); err != nil {
			b.Fatalf("WritePacket: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
	data := buf.Bytes()

	rd := bytes.NewReader(data)
	src, err := NewWireSource(rd)
	if err != nil {
		b.Fatalf("NewWireSource: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := src.Next()
		if !ok {
			if src.Err() != nil {
				b.Fatalf("wire source: %v", src.Err())
			}
			rd.Reset(data) // recording exhausted: rewind (amortised)
			if src, err = NewWireSource(rd); err != nil {
				b.Fatalf("NewWireSource: %v", err)
			}
			p, ok = src.Next()
			if !ok {
				b.Fatal("empty recording")
			}
		}
		_ = p
	}
}

// BenchmarkHarnessSteady measures the whole loop end to end — generate,
// feed, classify, digest — unpaced, one feeder, including session start and
// drain (amortised at benchmark N).
func BenchmarkHarnessSteady(b *testing.B) {
	e := testEngine(b, 1<<16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := Run(context.Background(), Config{
		Engine: e,
		Churn:  churnTestCfg(20_000, 4),
		Phases: []Phase{{Name: "bench", Packets: int64(b.N)}},
	})
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
	if rep.Total.Elapsed > 0 {
		b.ReportMetric(float64(rep.Total.Packets)/rep.Total.Elapsed.Seconds(), "pkts/s")
	}
}

// TestMillionFlowValidation is the headline scale run: a 1.2M-flow churning
// population over a 4M-slot deployment, driven through steady, collision-
// storm, and block-storm phases, asserting the table sustains over a
// million concurrent flows at every phase boundary. ~10M packets on one
// CPU; gated behind SPLIDT_LOADGEN_1M=1 so the ordinary suite stays fast.
func TestMillionFlowValidation(t *testing.T) {
	if os.Getenv("SPLIDT_LOADGEN_1M") == "" {
		t.Skip("set SPLIDT_LOADGEN_1M=1 to run the million-flow validation")
	}
	// A single pipeline's per-flow state is stage-bounded (≈280K flows fit
	// Tofino1's register stages at ~480 bits/flow), so the million-flow
	// table is 8 shard pipelines splitting a 2^21-slot budget — 262K slots
	// each.
	const (
		flows  = 1_200_000
		slots  = 1 << 21 // total across shards
		shards = 8
	)
	dcfg := deployCfg(t, slots)
	dcfg.Table = dataplane.TableCuckoo       // direct mapping collision-couples at this load
	dcfg.IdleTimeout = 10 * time.Millisecond // virtual time; see ChurnConfig.TimeScale
	e, err := engine.New(engine.Config{Deploy: dcfg, Shards: shards})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	churn := ChurnConfig{
		Flows:           flows,
		Seed:            2025,
		TimeScale:       3000,
		LongIATFraction: 0.05,
		CollisionTable:  slots,
		CollisionGroups: 64,
		PoolSize:        1024,
	}
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		Engine:  e,
		Feeders: 2,
		Churn:   churn,
		Phases: []Phase{
			{Name: "steady", Packets: 4_000_000},
			{Name: "storm", Packets: 3_000_000, CollisionFrac: 0.5},
			{Name: "blockstorm", Packets: 3_000_000, BlockEvery: 2000},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, pr := range rep.Phases {
		t.Logf("%v", pr)
		if pr.ActiveFlows < 1_000_000 {
			t.Errorf("phase %s: %d active flows at phase end, want ≥ 1M",
				pr.Name, pr.ActiveFlows)
		}
	}
	t.Logf("%v", rep.Total)
	t.Logf("wall %v, %0.f pkts/s overall", time.Since(start), rep.Total.PktsPerSec)
	// Benchstat-format lines for BENCH_engine.json (make bench-1m): one per
	// phase plus the run total, on stdout so `grep ^Benchmark` collects them.
	for _, pr := range append(rep.Phases, rep.Total) {
		fmt.Printf("BenchmarkLoadgenMillionFlow/%s \t%d\t%d ns/op\t%.0f pkts/s\t%d active-flows\t%d p50-ns\t%d p99-ns\t%d p999-ns\t%.3f occupancy\n",
			pr.Name, pr.Packets, pr.Elapsed.Nanoseconds(), pr.PktsPerSec,
			pr.ActiveFlows, pr.P50.Nanoseconds(), pr.P99.Nanoseconds(),
			pr.P999.Nanoseconds(), pr.Occupancy)
	}
	if rep.Total.LatencyCount != rep.Total.Digests {
		t.Errorf("latency observations %d != digests %d",
			rep.Total.LatencyCount, rep.Total.Digests)
	}
	if rep.Total.Births == 0 {
		t.Error("no churn at million-flow scale")
	}
}
