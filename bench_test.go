// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment driver end-to-end
// on a reproduction-scale environment and reports the headline metrics
// through testing.B metrics, so `go test -bench=.` both regenerates the
// artifacts and records their values.
package splidt

import (
	"context"
	"sync"
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/experiments"
	"splidt/internal/metrics"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/timerwheel"
	"splidt/internal/trace"
)

// benchEnv builds a benchmark-scale environment: large enough for stable
// F1s, small enough that the full suite completes in minutes.
func benchEnv(id trace.DatasetID) *experiments.Env {
	env := experiments.NewEnv(id, 300)
	env.BOIterations = 5
	env.BOParallel = 4
	return env
}

// BenchmarkFigure2 regenerates Figure 2 (SpliDT vs top-k vs ideal, D1–3
// representative dataset D2): F1 across flow targets.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(benchEnv(trace.D2))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpliDT[0].F1, "splidt-F1@100K")
		b.ReportMetric(r.TopK[0].F1, "topk-F1@100K")
		b.ReportMetric(r.IdealF1, "ideal-F1")
		b.ReportMetric(r.PerPacketF1, "perpacket-F1")
	}
}

// BenchmarkTable1 regenerates Table 1 (feature density per
// partition/subtree; recirculation bandwidth WS/HD).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchEnv(trace.D1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PerSubtreeMean, "subtree-density-%")
		b.ReportMetric(r.PerPartitionMean, "partition-density-%")
		b.ReportMetric(r.WSMean, "WS-Mbps")
		b.ReportMetric(r.HDMean, "HD-Mbps")
	}
}

// BenchmarkFigure6 regenerates Figure 6 / Table 3 (Pareto frontier and
// resource usage, representative dataset D3).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Table3(benchEnv(trace.D3))
		if err != nil {
			b.Fatal(err)
		}
		sp, _ := r.SpliDTRow(1_000_000)
		nb, _ := r.RowOf("NB", 1_000_000)
		leo, _ := r.RowOf("Leo", 1_000_000)
		b.ReportMetric(sp.F1, "splidt-F1@1M")
		b.ReportMetric(nb.F1, "NB-F1@1M")
		b.ReportMetric(leo.F1, "Leo-F1@1M")
		b.ReportMetric(float64(sp.Features), "splidt-features@1M")
	}
}

// BenchmarkTable3 regenerates Table 3's 100K row explicitly (feature
// scaling at the resource-rich end).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Table3(benchEnv(trace.D6))
		if err != nil {
			b.Fatal(err)
		}
		sp, _ := r.SpliDTRow(100_000)
		nb, _ := r.RowOf("NB", 100_000)
		b.ReportMetric(sp.F1, "splidt-F1@100K")
		b.ReportMetric(float64(sp.Features), "splidt-features")
		b.ReportMetric(float64(nb.Features), "NB-topk")
		b.ReportMetric(float64(sp.TCAMEntries), "splidt-entries")
		b.ReportMetric(float64(sp.RegisterBits), "splidt-regbits")
	}
}

// BenchmarkFigure7 regenerates Figure 7 (BO convergence).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(benchEnv(trace.D2))
		it, final := r.ConvergedAt(0.005)
		b.ReportMetric(float64(it), "iters-to-peak")
		b.ReportMetric(final, "peak-F1")
	}
}

// BenchmarkTable4 regenerates Table 4 (per-iteration framework stage times).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(benchEnv(trace.D2))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Training.Seconds()*1e3, "train-ms")
		b.ReportMetric(r.Rulegen.Seconds()*1e3, "rulegen-ms")
		b.ReportMetric(r.Backend.Seconds()*1e6, "backend-us")
		b.ReportMetric(r.Total().Seconds()*1e3, "total-ms")
	}
}

// BenchmarkTable5 regenerates Table 5 (max recirculation bandwidth).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(benchEnv(trace.D2))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxMbps(), "max-Mbps")
	}
}

// BenchmarkFigure8Depth regenerates Figure 8a (fixed tree depth sweep).
func BenchmarkFigure8Depth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchEnv(trace.D2), "depth", []int{10, 20, 30})
		if err != nil {
			b.Fatal(err)
		}
		f10, _ := r.At(10, 100_000)
		f30, _ := r.At(30, 100_000)
		b.ReportMetric(f10, "F1-depth10@100K")
		b.ReportMetric(f30, "F1-depth30@100K")
	}
}

// BenchmarkFigure8Partitions regenerates Figure 8b (fixed partition-count
// sweep).
func BenchmarkFigure8Partitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchEnv(trace.D2), "partitions", []int{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		f1p, _ := r.At(1, 100_000)
		f5p, _ := r.At(5, 100_000)
		b.ReportMetric(f1p, "F1-1part@100K")
		b.ReportMetric(f5p, "F1-5part@100K")
	}
}

// BenchmarkFigure8Features regenerates Figure 8c (fixed features-per-subtree
// sweep).
func BenchmarkFigure8Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchEnv(trace.D2), "features", []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		f1k, _ := r.At(1, 100_000)
		f3k, _ := r.At(3, 100_000)
		b.ReportMetric(f1k, "F1-k1@100K")
		b.ReportMetric(f3k, "F1-k3@100K")
	}
}

// BenchmarkFigure9 regenerates Figure 9 (F1 vs TCAM entries).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchEnv(trace.D2))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.BestUnder(r.SpliDT, 1000), "splidt-F1@1k-entries")
		b.ReportMetric(experiments.BestUnder(r.NB, 1000), "NB-F1@1k-entries")
	}
}

// BenchmarkFigure10 regenerates Figure 10 (time-to-detection ECDF, D3,
// Hadoop environment).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchEnv(trace.D3), trace.Hadoop)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Curves[0].Quantile(0.5), "splidt-p50-ms")
		b.ReportMetric(r.Curves[1].Quantile(0.5), "NB-p50-ms")
		b.ReportMetric(r.Curves[2].Quantile(0.5), "Leo-p50-ms")
		b.ReportMetric(r.Curves[0].F1, "splidt-F1")
	}
}

// BenchmarkFigure11 regenerates Figure 11 (register bits vs #features).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure11(50, []int{1, 2, 3, 4})
		spl4 := r.Series[3] // SpliDT:4
		nb := r.Series[4]   // NB/Leo
		b.ReportMetric(float64(spl4.Bits[49]), "splidt4-bits@50feat")
		b.ReportMetric(float64(nb.Bits[49]), "NB-bits@50feat")
	}
}

// BenchmarkFigure12 regenerates Figure 12 (Pareto vs bit precision, D3).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(trace.D3)
		env.BOIterations = 4
		r, err := experiments.Figure12(env, []int{32, 16, 8})
		if err != nil {
			b.Fatal(err)
		}
		f32, _ := r.BestAt(32, 100_000)
		f16, _ := r.BestAt(16, 100_000)
		f8, _ := r.BestAt(8, 100_000)
		b.ReportMetric(f32, "F1-32bit@100K")
		b.ReportMetric(f16, "F1-16bit@100K")
		b.ReportMetric(f8, "F1-8bit@100K")
	}
}

// BenchmarkRangeMarkAblation compares range-marking rule counts against the
// naive per-leaf prefix cross-product — the design choice that avoids rule
// explosion.
func BenchmarkRangeMarkAblation(b *testing.B) {
	flows := trace.Generate(trace.D3, 400, 11)
	samples := trace.BuildSamples(flows, 2)
	m, err := core.Train(samples, core.Config{
		Partitions: []int{4, 3}, FeaturesPerSubtree: 4, NumClasses: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := rangemark.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		naive := rangemark.NaiveEntries(m)
		b.ReportMetric(float64(c.Entries()), "rangemark-entries")
		b.ReportMetric(float64(naive), "naive-entries")
		b.ReportMetric(float64(naive)/float64(len(c.ModelRules())), "model-rule-blowup")
	}
}

// BenchmarkAdaptiveWindows ablates the §6 extension: uniform windows versus
// front-loaded boundaries (first subtree sees the first 15% of a flow) on
// the IDS-style dataset with early temporal signatures.
func BenchmarkAdaptiveWindows(b *testing.B) {
	flows := trace.Generate(trace.D6, 600, 3)
	bounds := pkt.Bounds{0.15, 0.5, 1}
	uniform := trace.BuildSamples(flows, 3)
	adaptive := trace.BuildSamplesBounds(flows, bounds)
	utr, ute := trace.Split(uniform, 0.7)
	atr, ate := trace.Split(adaptive, 0.7)
	score := func(m *core.Model, test []trace.Sample) float64 {
		actual := make([]int, len(test))
		pred := make([]int, len(test))
		for i, s := range test {
			actual[i] = s.Label
			pred[i] = m.Classify(s.Windows)
		}
		return metrics.MacroF1Of(actual, pred, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu, err := core.Train(utr, core.Config{
			Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		ma, err := core.Train(atr, core.Config{
			Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 10,
			WindowBounds: bounds,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(score(mu, ute), "F1-uniform")
		b.ReportMetric(score(ma, ate), "F1-frontloaded")
	}
}

// engineBenchState builds the engine benchmark fixture once: a trained and
// compiled deployment plus a pre-materialised packet sequence, so the
// measured path is pure dispatch + pipeline execution (generation cost
// would otherwise serialise on the dispatcher and mask shard scaling).
var engineBenchState struct {
	once sync.Once
	cfg  dataplane.Config
	pkts []pkt.Packet
}

func engineBenchFixture(b *testing.B) (dataplane.Config, []pkt.Packet) {
	st := &engineBenchState
	st.once.Do(func() {
		flows := trace.Generate(trace.D3, 400, 33)
		samples := trace.BuildSamples(flows, 3)
		train, _ := trace.Split(samples, 0.7)
		m, err := core.Train(train, core.Config{
			Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 13,
		})
		if err != nil {
			b.Fatal(err)
		}
		c, err := rangemark.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		st.cfg = dataplane.Config{
			Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 1 << 18,
		}
		st.pkts = trace.Interleave(trace.Generate(trace.D3, 3000, 7), 100*time.Microsecond)
	})
	return st.cfg, st.pkts
}

// benchmarkEngineShards measures end-to-end engine throughput at a fixed
// shard count over the same workload, reporting pkts/sec — the scaling
// trajectory future PRs regress against.
func benchmarkEngineShards(b *testing.B, shards int) {
	cfg, pkts := engineBenchFixture(b)
	e, err := engine.New(engine.Config{Deploy: cfg, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(&engine.SliceSource{Pkts: pkts})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != len(pkts) {
			b.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
		}
		rate += res.Throughput.PktsPerSec()
	}
	b.ReportMetric(rate/float64(b.N), "pkts/s")
	b.ReportMetric(float64(shards), "shards")
}

func BenchmarkEngineShards1(b *testing.B) { benchmarkEngineShards(b, 1) }
func BenchmarkEngineShards2(b *testing.B) { benchmarkEngineShards(b, 2) }
func BenchmarkEngineShards4(b *testing.B) { benchmarkEngineShards(b, 4) }
func BenchmarkEngineShards8(b *testing.B) { benchmarkEngineShards(b, 8) }

// benchmarkEngineRecorder measures the flight recorder's hot-path cost:
// the same 4-shard workload with the per-shard event rings enabled
// (default depth) vs disabled. The acceptance bar is a ≤2% pkts/s delta —
// the recorder is a handful of uncontended atomics per burst, not a
// per-packet tax.
func benchmarkEngineRecorder(b *testing.B, recorder int) {
	cfg, pkts := engineBenchFixture(b)
	e, err := engine.New(engine.Config{Deploy: cfg, Shards: 4, FlightRecorder: recorder})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(&engine.SliceSource{Pkts: pkts})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != len(pkts) {
			b.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
		}
		rate += res.Throughput.PktsPerSec()
	}
	b.ReportMetric(rate/float64(b.N), "pkts/s")
}

func BenchmarkEngineRecorderOn(b *testing.B)  { benchmarkEngineRecorder(b, 0) }
func BenchmarkEngineRecorderOff(b *testing.B) { benchmarkEngineRecorder(b, -1) }

// benchmarkParallelFeed measures end-to-end pkts/s with M concurrent
// feeders driving one 4-shard session over a flow-disjoint partition of the
// workload (trace.Partition) — the dispatch-side scaling the MPSC shard
// rings and per-feeder staging exist for. Feeder count 1 degenerates to the
// BenchmarkSessionFeed shape, so the two trajectories compare directly.
// Note: on a single-CPU runner (GOMAXPROCS=1) all feeder counts report
// roughly flat pkts/s; the scaling shows on multicore hardware.
func benchmarkParallelFeed(b *testing.B, feeders int) {
	cfg, pkts := engineBenchFixture(b)
	e, err := engine.New(engine.Config{Deploy: cfg, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	parts := trace.Partition(pkts, feeders)
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		s, err := e.Start(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, part := range parts {
			f, err := s.NewFeeder()
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(part []pkt.Packet) {
				defer wg.Done()
				if err := f.FeedAll(part); err != nil {
					b.Error(err)
				}
				f.Close()
			}(part)
		}
		wg.Wait()
		res, err := s.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != len(pkts) {
			b.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
		}
		rate += res.Throughput.PktsPerSec()
	}
	b.ReportMetric(rate/float64(b.N), "pkts/s")
	b.ReportMetric(float64(feeders), "feeders")
}

func BenchmarkParallelFeed1(b *testing.B) { benchmarkParallelFeed(b, 1) }
func BenchmarkParallelFeed2(b *testing.B) { benchmarkParallelFeed(b, 2) }
func BenchmarkParallelFeed4(b *testing.B) { benchmarkParallelFeed(b, 4) }

// benchmarkEngineHighLoad measures end-to-end engine throughput with the
// flow table under real pressure: the register budget is cut to 4Ki slots
// for the 3000-flow workload, a load factor where the direct scheme couples
// flows (collisions reported as a metric) and the cuckoo scheme pays for
// displacement and verification. Comparing the two trajectories prices the
// exactness the associative scheme buys.
func benchmarkEngineHighLoad(b *testing.B, scheme dataplane.TableScheme) {
	cfg, pkts := engineBenchFixture(b)
	cfg.FlowSlots = 1 << 12
	cfg.Table = scheme
	e, err := engine.New(engine.Config{Deploy: cfg, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rate, collisions float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(&engine.SliceSource{Pkts: pkts})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != len(pkts) {
			b.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
		}
		rate += res.Throughput.PktsPerSec()
		collisions += float64(res.Stats.Collisions)
	}
	b.ReportMetric(rate/float64(b.N), "pkts/s")
	b.ReportMetric(collisions/float64(b.N), "collisions/op")
}

func BenchmarkEngineHighLoadDirect(b *testing.B) { benchmarkEngineHighLoad(b, dataplane.TableDirect) }
func BenchmarkEngineHighLoadCuckoo(b *testing.B) { benchmarkEngineHighLoad(b, dataplane.TableCuckoo) }

// BenchmarkWheelAdvance measures the timer-wheel hot path a shard worker
// pays with ageing on: re-arming a working set of timers and advancing
// the wheel across their deadlines. Every op schedules 1024 timers over a
// 512-tick window and advances through it, so the measured cost covers
// placement, cascading, and firing; the whole path must stay
// allocation-free (0 allocs/op).
func BenchmarkWheelAdvance(b *testing.B) {
	const timers = 1024
	expired := 0
	w := timerwheel.New(timerwheel.Config{OnExpire: func(*timerwheel.Node) { expired++ }})
	nodes := make([]timerwheel.Node, timers)
	b.ReportAllocs()
	b.ResetTimer()
	var now time.Duration
	for i := 0; i < b.N; i++ {
		for j := range nodes {
			w.Schedule(&nodes[j], now+time.Duration(1+j%512)*timerwheel.DefaultTick)
		}
		now += 512 * timerwheel.DefaultTick
		w.Advance(now)
	}
	b.StopTimer()
	if expired != timers*b.N {
		b.Fatalf("fired %d timers, want %d", expired, timers*b.N)
	}
	b.ReportMetric(timers, "timers/op")
}

// engineChurnState holds the heavy-tailed churn workload, generated once.
var engineChurnState struct {
	once sync.Once
	pkts []pkt.Packet
}

// engineChurnFixture builds the expiry-churn deployment: the engine
// benchmark model over a heavy-tailed workload (30% keepalive flows with
// 0.6–2s gaps) on a cuckoo table squeezed to 4Ki cells, with a 100ms idle
// timeout. Keepalives hold entries across long gaps while chatty flows
// churn through, so the expiry wheel is continuously reclaiming under load.
func engineChurnFixture(b *testing.B) (dataplane.Config, []pkt.Packet) {
	cfg, _ := engineBenchFixture(b)
	st := &engineChurnState
	st.once.Do(func() {
		flows := trace.GenerateWith(trace.D3, 3000, 7, trace.GenConfig{LongIATFraction: 0.3})
		st.pkts = trace.Interleave(flows, 100*time.Microsecond)
	})
	cfg.FlowSlots = 1 << 12
	cfg.Table = dataplane.TableCuckoo
	cfg.IdleTimeout = 100 * time.Millisecond
	return cfg, st.pkts
}

// BenchmarkEngineChurnWheel measures end-to-end engine throughput with
// flow-table churn under timer-wheel expiry, reporting pkts/s and the
// reclaim volume.
func BenchmarkEngineChurnWheel(b *testing.B) {
	cfg, pkts := engineChurnFixture(b)
	e, err := engine.New(engine.Config{Deploy: cfg, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rate, evictions float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(&engine.SliceSource{Pkts: pkts})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != len(pkts) {
			b.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
		}
		rate += res.Throughput.PktsPerSec()
		evictions += float64(res.Stats.Evictions)
	}
	b.ReportMetric(rate/float64(b.N), "pkts/s")
	b.ReportMetric(evictions/float64(b.N), "evictions/op")
}

// BenchmarkSessionFeed measures the streaming path end to end — Start, a
// Feed loop spinning through backpressure, Close — over the same workload
// as the shard benchmarks, so batch (Run) and streaming numbers compare
// directly.
func BenchmarkSessionFeed(b *testing.B) {
	cfg, pkts := engineBenchFixture(b)
	e, err := engine.New(engine.Config{Deploy: cfg, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		s, err := e.Start(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.FeedAll(pkts); err != nil {
			b.Fatal(err)
		}
		res, err := s.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Packets != len(pkts) {
			b.Fatalf("processed %d packets, want %d", res.Stats.Packets, len(pkts))
		}
		rate += res.Throughput.PktsPerSec()
	}
	b.ReportMetric(rate/float64(b.N), "pkts/s")
}
