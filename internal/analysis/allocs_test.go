package analysis

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"splidt"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/features"
	"splidt/internal/flow"
	"splidt/internal/flowtable"
	"splidt/internal/loadgen"
	"splidt/internal/metrics"
	"splidt/internal/pkt"
	"splidt/internal/tcam"
	"splidt/internal/telemetry/flight"
	"splidt/internal/timerwheel"
	"splidt/internal/trace"
)

// The consolidated zero-allocation suite: one table, one probe per cluster
// of //splidt:hotpath functions, and a completeness check that the union of
// the probes' covers lists equals the annotated set the analyzers enforce.
// Annotating a new function without adding it to a covers list fails
// TestAnnotatedAllocFree immediately — the runtime pin and the static
// annotation can never drift apart.
//
// This table replaces the scattered per-package AllocsPerRun tests
// (dataplane, flowtable, timerwheel, loadgen, metrics, pkt) that each pinned
// a slice of the hot path in isolation.

// allocProbe measures one cluster of annotated functions.
type allocProbe struct {
	name   string
	covers []string                  // FuncIDs this probe exercises (directly or transitively)
	runs   int                       // AllocsPerRun iterations (default 200)
	setup  func(t *testing.T) func() // builds state, returns the measured op
}

// ids prefixes names with the module package path to form FuncIDs.
func ids(pkg string, names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "splidt/internal/" + pkg + "." + n
	}
	return out
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// deployPipeline builds a small end-to-end deployment (the quickstart path)
// shared by the dataplane probes.
func deployPipeline(t *testing.T, scheme dataplane.TableScheme) (*dataplane.Pipeline, []trace.LabeledFlow) {
	t.Helper()
	flows := splidt.Generate(splidt.D2, 300, 1)
	samples := splidt.BuildSamples(flows, 2)
	model, err := splidt.Train(samples, splidt.Config{
		Partitions:         []int{2, 2},
		FeaturesPerSubtree: 3,
		NumClasses:         splidt.NumClasses(splidt.D2),
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	compiled, err := splidt.Compile(model)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pl, err := splidt.Deploy(splidt.DeployConfig{
		Profile:     splidt.Tofino1(),
		Model:       model,
		Compiled:    compiled,
		FlowSlots:   1 << 12,
		Table:       scheme,
		Workload:    splidt.Webserver,
		IdleTimeout: time.Minute,
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return pl, flows
}

// midFlowPacket returns a packet that is never a window end: Seq 1 of a
// reasonably long flow — the overwhelmingly common per-packet case.
func midFlowPacket(t *testing.T, flows []trace.LabeledFlow) pkt.Packet {
	t.Helper()
	for _, f := range flows {
		if len(f.Packets) >= 8 {
			return f.Packets[0]
		}
	}
	t.Fatal("no flow with >= 8 packets in the generated trace")
	return pkt.Packet{}
}

// recordStream writes n data records interleaved with control frames and
// returns the raw bytes, for the record-reader and wire-source probes.
func recordStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pkt.NewRecordWriter(&buf)
	if err != nil {
		t.Fatalf("NewRecordWriter: %v", err)
	}
	for i := 0; i < n; i++ {
		p := pkt.Packet{
			Key: flow.Key{
				SrcIP: flow.AddrFrom4(10, 0, byte(i>>8), byte(i)), DstIP: flow.AddrFrom4(10, 1, 2, 3),
				SrcPort: uint16(1024 + i%1000), DstPort: 443, Proto: flow.ProtoTCP,
			},
			Len: 100, Seq: 1 + i%7, FlowSize: 8, TS: time.Duration(i) * time.Microsecond,
		}
		if err := w.WritePacket(p); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
		if i%5 == 0 {
			if err := w.WriteControl(pkt.Control{NextSID: 1, FlowIndex: uint32(i)}, p.TS); err != nil {
				t.Fatalf("WriteControl: %v", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func allocProbes() []allocProbe {
	return []allocProbe{
		{
			name: "flow-key",
			covers: ids("flow",
				"AddrFrom4", "Key.Canonical", "Key.Hash", "IndexOf", "Key.IsCanonical",
				"Key.Reverse", "Key.ShardHash", "Key.SymHash", "Mix64", "Unmix64"),
			setup: func(t *testing.T) func() {
				var sink uint64
				return func() {
					k := flow.Key{
						SrcIP: flow.AddrFrom4(10, 0, 0, 1), DstIP: flow.AddrFrom4(10, 0, 0, 2),
						SrcPort: 40000, DstPort: 443, Proto: flow.ProtoTCP,
					}
					c := k.Reverse().Canonical()
					if !c.IsCanonical() {
						t.Fatal("canonical key not canonical")
					}
					sink += uint64(c.Hash()) + uint64(flow.IndexOf(c.Hash(), 1<<12)) + uint64(c.SymHash()) +
						c.ShardHash() + flow.Mix64(sink) + flow.Unmix64(sink)
				}
			},
		},
		{
			name: "features-state",
			covers: ids("features",
				"FlowState.Update", "FlowState.Reset", "FlowState.Snapshot",
				"RegValue", "clampNonNeg", "floorU64", "mean", "std"),
			setup: func(t *testing.T) func() {
				var st features.FlowState
				p := pkt.Packet{Len: 120, Flags: pkt.FlagACK, TS: time.Millisecond, Seq: 1, FlowSize: 9}
				var sink uint32
				return func() {
					st.Update(p)
					st.Update(p)
					v := st.Snapshot()
					sink += features.RegValue(v[0], 3, 16)
					st.Reset()
				}
			},
		},
		{
			name:   "metrics-hist",
			covers: ids("metrics", "Hist.Record", "Hist.RecordDur", "histIndex"),
			setup: func(t *testing.T) func() {
				h := &metrics.Hist{}
				return func() {
					h.Record(123456)
					h.RecordDur(85 * time.Microsecond)
				}
			},
		},
		{
			name:   "flight-recorder",
			covers: ids("telemetry/flight", "Ring.Record"),
			setup: func(t *testing.T) func() {
				r := flight.New(64)
				return func() {
					r.Record(flight.KindBurstStart, 123*time.Microsecond, 32, 1)
					r.Record(flight.KindBurstEnd, 125*time.Microsecond, 32, 7)
				}
			},
		},
		{
			name:   "tcam-lookup",
			covers: ids("tcam", "Table.Lookup"),
			setup: func(t *testing.T) func() {
				tb := tcam.New("probe", 16, 16)
				tb.Insert(tcam.Entry{Value: []uint32{7, 0}, Mask: []uint32{0xFFFF, 0}, Priority: 1, Action: 3})
				tb.Freeze()
				return func() {
					if _, ok := tb.Lookup(7, 99); !ok {
						t.Fatal("tcam lookup missed")
					}
				}
			},
		},
		{
			name: "rangemark-compiled",
			covers: ids("rangemark",
				"Compiled.Lookup", "Compiled.MarksInto", "Compiled.SlotFeatures", "Compiled.shiftOf"),
			setup: func(t *testing.T) func() {
				flows := splidt.Generate(splidt.D2, 300, 1)
				model, err := splidt.Train(splidt.BuildSamples(flows, 2), splidt.Config{
					Partitions:         []int{2, 2},
					FeaturesPerSubtree: 3,
					NumClasses:         splidt.NumClasses(splidt.D2),
				})
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				compiled, err := splidt.Compile(model)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				compiled.Freeze()
				row := make([]float64, features.NumTotal)
				marks := make([]uint32, compiled.K)
				sid := 0
				for sid < 4096 && !compiled.HasSID(sid) {
					sid++
				}
				if !compiled.HasSID(sid) {
					t.Fatal("no SID in the compiled model table")
				}
				return func() {
					marks = compiled.MarksInto(sid, row, marks)
					if _, ok := compiled.Lookup(sid, marks); !ok {
						t.Fatal("model table lookup missed")
					}
					if len(compiled.SlotFeatures(sid)) == 0 {
						t.Fatal("no slot features")
					}
				}
			},
		},
		{
			name: "timerwheel",
			covers: ids("timerwheel",
				"Node.Armed", "Node.Relink", "Node.Unlink",
				"Wheel.Advance", "Wheel.Schedule", "Wheel.place", "Wheel.slot",
				"Wheel.visit"),
			setup: func(t *testing.T) func() {
				type item struct {
					id    int
					timer timerwheel.Node
				}
				w := timerwheel.New(timerwheel.Config{OnExpire: func(n *timerwheel.Node) {}})
				items := make([]item, 64)
				var spare item
				for i := range items {
					items[i].timer.Data = &items[i]
				}
				now := time.Duration(0)
				return func() {
					for i := range items {
						w.Schedule(&items[i].timer, now+time.Duration(5+i)*time.Millisecond)
					}
					// Re-arm half later (the lazy path), a quarter earlier
					// (Schedule's internal unlink and relink), and disarm one
					// explicitly (the store-reclaim Unlink path).
					for i := 0; i < len(items)/2; i++ {
						w.Schedule(&items[i].timer, now+time.Duration(70+i)*time.Millisecond)
					}
					for i := 0; i < len(items)/4; i++ {
						w.Schedule(&items[i].timer, now+time.Duration(1+i)*time.Millisecond)
					}
					items[2].timer.Unlink()
					// Relocate items[0] into the (unarmed) spare slot — the
					// cuckoo-displacement pattern Relink exists for: copy,
					// repair neighbours, zero the stale source.
					spare = items[0]
					spare.timer.Data = &spare
					spare.timer.Relink()
					items[0].timer = timerwheel.Node{}
					items[0].timer.Data = &items[0]
					if !spare.timer.Armed() {
						t.Fatal("relocated node must stay armed")
					}
					// A long advance crosses level-0 laps, forcing cascades
					// and lazy re-files, and fires everything so the next run
					// starts unarmed.
					now += 3 * time.Second
					w.Advance(now)
				}
			},
		},
		{
			name: "flowtable-direct",
			covers: concat(
				ids("flowtable",
					"Direct.Acquire", "Direct.AcquireHashed", "Direct.Release", "Direct.Evict", "Direct.slotOf",
					"Entry.Timer", "Entry.free"),
				// The Store interface annotations are the contract these
				// probes (and the cuckoo ones) exercise through the interface.
				ids("flowtable", "Store.Acquire", "Store.AcquireHashed", "Store.Release", "Store.Evict"),
			),
			setup: func(t *testing.T) func() { return storeProbe(t, flowtable.NewDirect(256)) },
		},
		{
			name: "flowtable-cuckoo",
			covers: ids("flowtable",
				"Cuckoo.Acquire", "Cuckoo.AcquireHashed", "Cuckoo.Release", "Cuckoo.Evict",
				"Cuckoo.altBucket", "Cuckoo.bucketPair", "Cuckoo.cellOf", "Cuckoo.freeWay",
				"Cuckoo.insert", "Cuckoo.lookup", "Cuckoo.match", "Cuckoo.searchAndKick"),
			setup: func(t *testing.T) func() {
				return storeProbe(t, flowtable.NewCuckoo(flowtable.CuckooConfig{Capacity: 256, Ways: 4, Stash: 8}))
			},
		},
		{
			name:   "dataplane-sweep-pipeline",
			covers: ids("dataplane", "Pipeline.Process", "Pipeline.Sweep", "Pipeline.windowEnd", "registerHash"),
			setup: func(t *testing.T) func() {
				pl, flows := deployPipeline(t, dataplane.TableCuckoo)
				mid := midFlowPacket(t, flows)
				pl.Process(mid)
				return func() {
					pl.Process(mid)
					pl.Sweep(pl.Clock() + time.Minute)
				}
			},
		},
		{
			name:   "dataplane-wheel-expiry",
			covers: ids("dataplane", "Pipeline.expire"),
			setup: func(t *testing.T) func() {
				pl, flows := deployPipeline(t, dataplane.TableCuckoo)
				mid := midFlowPacket(t, flows)
				pl.Process(mid)
				now := pl.Clock()
				return func() {
					// Each call re-touches the flow then advances past its
					// lifetime, so the wheel fires and expire reclaims it.
					pl.Process(mid)
					now += time.Hour
					pl.Sweep(now)
				}
			},
		},
		{
			name: "pkt-wire",
			covers: ids("pkt",
				"Unmarshal", "TCPFlags.Has",
				"Packet.WindowOf", "Packet.IsWindowEnd",
				"Packet.WindowOfBounds", "Packet.IsWindowEndBounds",
				"Bounds.Valid", "Bounds.boundary"),
			setup: func(t *testing.T) func() {
				p := pkt.Packet{
					Key: flow.Key{
						SrcIP: flow.AddrFrom4(10, 0, 0, 1), DstIP: flow.AddrFrom4(10, 0, 0, 2),
						SrcPort: 40000, DstPort: 443, Proto: flow.ProtoTCP,
					},
					// Seq 4 of 9 sits strictly inside window 1 of 3 (boundaries
					// fall at seq 3, 6, 9), so it is never a window end.
					Len: 100, Seq: 4, FlowSize: 9, Flags: pkt.FlagACK | pkt.FlagPSH,
				}
				frame := pkt.Marshal(p, nil)
				ctrl := pkt.MarshalControl(pkt.Control{NextSID: 2, FlowIndex: 7}, nil)
				bounds := pkt.Uniform(3)
				if !bounds.Valid() {
					t.Fatal("uniform bounds invalid")
				}
				var sink int
				return func() {
					q, err := pkt.Unmarshal(frame, time.Millisecond)
					if err != nil {
						t.Fatalf("Unmarshal: %v", err)
					}
					if _, err := pkt.Unmarshal(ctrl, 0); err == nil {
						t.Fatal("control frame must reject")
					}
					if !q.Flags.Has(pkt.FlagACK) {
						t.Fatal("flags lost")
					}
					sink += q.WindowOf(3) + q.WindowOfBounds(bounds)
					if q.IsWindowEnd(3) || q.IsWindowEndBounds(bounds) {
						t.Fatal("mid-flow packet is not a window end")
					}
				}
			},
		},
		{
			name:   "pkt-record-reader",
			covers: ids("pkt", "RecordReader.Next"),
			runs:   1000,
			setup: func(t *testing.T) func() {
				raw := recordStream(t, 2200)
				r, err := pkt.NewRecordReader(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("NewRecordReader: %v", err)
				}
				if _, err := r.Next(); err != nil {
					t.Fatalf("warmup: %v", err)
				}
				return func() {
					if _, err := r.Next(); err != nil {
						t.Fatalf("Next: %v", err)
					}
				}
			},
		},
		{
			name:   "loadgen-wire-source",
			covers: ids("loadgen", "WireSource.Next"),
			runs:   1000,
			setup: func(t *testing.T) func() {
				raw := recordStream(t, 2200)
				src, err := loadgen.NewWireSource(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("NewWireSource: %v", err)
				}
				src.Next() // warm the decoder's frame buffer
				return func() {
					if _, ok := src.Next(); !ok {
						t.Fatalf("stream exhausted early: %v", src.Err())
					}
				}
			},
		},
		{
			name: "loadgen-churn",
			covers: ids("loadgen",
				"ChurnGen.Next", "ChurnGen.birth", "ChurnGen.emit", "ChurnGen.file", "ChurnGen.sift"),
			runs: 50_000,
			setup: func(t *testing.T) func() {
				g, err := loadgen.NewChurn(loadgen.ChurnConfig{Flows: 1000, Seed: 5, TimeScale: 3000})
				if err != nil {
					t.Fatalf("NewChurn: %v", err)
				}
				for i := 0; i < 200_000; i++ { // warm wheel buckets to steady size
					g.Next()
				}
				return func() {
					if _, ok := g.Next(); !ok {
						t.Fatal("churn source exhausted; must be endless")
					}
				}
			},
		},
		{
			name:   "trace-workload",
			covers: ids("trace", "Workload.SampleDuration", "Workload.SampleFlowSize"),
			setup: func(t *testing.T) func() {
				rng := rand.New(rand.NewSource(11))
				var sink int64
				return func() {
					sink += int64(trace.Webserver.SampleFlowSize(rng)) +
						int64(trace.Webserver.SampleDuration(rng))
				}
			},
		},
		{
			name: "engine-rings",
			covers: ids("engine",
				"spscRing.tryPush", "spscRing.tryPop", "mpscRing.enqueue", "mpscRing.tryPop",
				"shardState.pendingDeploy"),
			setup: func(t *testing.T) func() { return engine.RingAllocProbe() },
		},
	}
}

// storeProbe exercises one flow-table scheme through the Store interface:
// resident Acquire and AcquireHashed, Evict/re-Acquire churn, Release, and
// entry timer access. Half occupancy first, so cuckoo insertions displace.
func storeProbe(t *testing.T, s flowtable.Store) func() {
	t.Helper()
	key := func(i int) flow.Key {
		return flow.Key{
			SrcIP: flow.AddrFrom4(10, 0, byte(i>>8), byte(i)), DstIP: flow.AddrFrom4(10, 9, 9, 9),
			SrcPort: uint16(2000 + i), DstPort: 443, Proto: flow.ProtoTCP,
		}.Canonical()
	}
	for i := 0; i < 128; i++ {
		if e, st := s.Acquire(key(i)); st == flowtable.StatusFresh {
			e.SID = 1
		}
	}
	k := key(5)
	return func() {
		e, _ := s.Acquire(k)
		if e == nil {
			t.Fatal("resident flow not found")
		}
		if e.Timer().Armed() {
			t.Fatal("store-level entries must not arm timers")
		}
		if eh, _ := s.AcquireHashed(k, k.Hash()); eh != e {
			t.Fatal("AcquireHashed found a different entry")
		}
		s.Evict(k)
		e2, st := s.AcquireHashed(k, k.Hash())
		if st == flowtable.StatusFresh {
			e2.SID = 1
		}
		s.Release(e2)
		if e3, st := s.Acquire(k); st == flowtable.StatusFresh {
			e3.SID = 1
		}
	}
}

// TestAnnotatedAllocFree is the consolidated allocation gate: every
// annotated hot-path function is claimed by exactly one probe table entry,
// and every probe runs allocation-free.
func TestAnnotatedAllocFree(t *testing.T) {
	world, err := ParseAnnotated()
	if err != nil {
		t.Fatalf("ParseAnnotated: %v", err)
	}
	annotated := make(map[string]bool)
	for _, id := range world.FuncIDs() {
		annotated[id] = true
	}
	probes := allocProbes()

	covered := make(map[string]string)
	for _, p := range probes {
		for _, id := range p.covers {
			if !annotated[id] {
				t.Errorf("probe %q covers %s, which is not //splidt:hotpath (stale covers entry?)", p.name, id)
			}
			covered[id] = p.name
		}
	}
	for _, id := range world.FuncIDs() {
		if covered[id] == "" {
			t.Errorf("annotated %s has no allocation probe; add it to a covers list", id)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			op := p.setup(t)
			runs := p.runs
			if runs == 0 {
				runs = 200
			}
			if avg := testing.AllocsPerRun(runs, op); avg != 0 {
				t.Fatalf("probe %q allocates %.2f/op, want 0 (covers %v)", p.name, avg, p.covers)
			}
		})
	}
}
