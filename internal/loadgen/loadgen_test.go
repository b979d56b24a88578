package loadgen

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/flow"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

// deployCfg trains and compiles a small model once and returns the
// deployment template (same shape as the engine tests'), re-sliced per call
// for the requested flow-slot budget.
var (
	deployOnce sync.Once
	deployBase dataplane.Config
)

func deployCfg(t testing.TB, slots int) dataplane.Config {
	t.Helper()
	deployOnce.Do(func() {
		flows := trace.Generate(trace.D3, 400, 33)
		samples := trace.BuildSamples(flows, 3)
		train, _ := trace.Split(samples, 0.7)
		m, err := core.Train(train, core.Config{
			Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 13,
		})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		c, err := rangemark.Compile(m)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		deployBase = dataplane.Config{
			Profile: resources.Tofino1(), Model: m, Compiled: c,
		}
	})
	cfg := deployBase
	cfg.FlowSlots = slots
	return cfg
}

func testEngine(t testing.TB, slots, shards int) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, slots), Shards: shards})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return e
}

// churnTestCfg compresses flow lifetimes hard (120s mean → ~40ms virtual)
// so even a short pull sees real population turnover.
func churnTestCfg(flows int, seed int64) ChurnConfig {
	return ChurnConfig{Flows: flows, Seed: seed, TimeScale: 3000}
}

// TestChurnSteadyPopulation pins the generator's core invariants over a
// long pull: population constant, per-incarnation sequence numbers exact
// (SYN opens at 1, FIN closes at size), timestamps non-decreasing, and the
// population actually churns.
func TestChurnSteadyPopulation(t *testing.T) {
	const flows, pulls = 2000, 300_000
	g, err := NewChurn(churnTestCfg(flows, 1))
	if err != nil {
		t.Fatalf("NewChurn: %v", err)
	}
	type st struct{ seq, size int }
	live := make(map[flow.Key]*st)
	var lastTS time.Duration
	for i := 0; i < pulls; i++ {
		p, ok := g.Next()
		if !ok {
			t.Fatal("ChurnGen exhausted; must be endless")
		}
		if p.TS < lastTS {
			t.Fatalf("timestamp regressed: %v after %v", p.TS, lastTS)
		}
		lastTS = p.TS
		k := p.Key.Canonical()
		if p.ShardHash != p.Key.ShardHash() {
			t.Fatal("dispatch hash not precomputed correctly")
		}
		if uint32(flow.Unmix64(p.ShardHash)) != k.Hash() {
			t.Fatal("dispatch hash does not un-mix to the register hash")
		}
		f := live[k]
		if p.Flags&pkt.FlagSYN != 0 {
			if p.Seq != 1 {
				t.Fatalf("SYN at seq %d", p.Seq)
			}
			live[k] = &st{seq: 1, size: p.FlowSize}
			continue
		}
		if f == nil {
			// First packets of the initial population may be mid-flow only
			// if generation started them at seq 1; everything opens SYN.
			t.Fatalf("packet for unknown flow %v seq=%d", k, p.Seq)
		}
		f.seq++
		if p.Seq != f.seq {
			t.Fatalf("flow %v: seq %d, want %d", k, p.Seq, f.seq)
		}
		if p.FlowSize != f.size {
			t.Fatalf("flow %v: size changed mid-incarnation", k)
		}
		if f.seq == f.size {
			if p.Flags&pkt.FlagFIN == 0 {
				t.Fatalf("flow %v: last packet missing FIN", k)
			}
			delete(live, k)
		} else if p.Flags&pkt.FlagFIN != 0 {
			t.Fatalf("flow %v: FIN at seq %d of %d", k, f.seq, f.size)
		}
	}
	if g.Births() == 0 {
		t.Fatal("no rebirths over a long compressed pull; churn inert")
	}
	if g.Emitted() != pulls {
		t.Fatalf("Emitted() = %d, want %d", g.Emitted(), pulls)
	}
	if g.Flows() != flows {
		t.Fatalf("Flows() = %d, want %d", g.Flows(), flows)
	}
}

// TestChurnDeterministic pins replayability: same config, same packets.
func TestChurnDeterministic(t *testing.T) {
	a, _ := NewChurn(churnTestCfg(500, 42))
	b, _ := NewChurn(churnTestCfg(500, 42))
	c, _ := NewChurn(churnTestCfg(500, 43))
	diverged := false
	for i := 0; i < 50_000; i++ {
		pa, _ := a.Next()
		pb, _ := b.Next()
		if pa != pb {
			t.Fatalf("same seed diverged at packet %d", i)
		}
		pc, _ := c.Next()
		if pa != pc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestChurnCollisionStorm pins the adversarial pool: with the knob at 1,
// every rebirth draws a key whose symmetric register hash lands in the
// target index group.
func TestChurnCollisionStorm(t *testing.T) {
	const table, groups = 1 << 12, 16
	cfg := churnTestCfg(500, 7)
	cfg.CollisionTable = table
	cfg.CollisionGroups = groups
	cfg.PoolSize = 64
	g, err := NewChurn(cfg)
	if err != nil {
		t.Fatalf("NewChurn: %v", err)
	}
	for _, k := range g.pool {
		if int(k.SymHash()%uint32(table)) >= groups {
			t.Fatalf("pool key %v misses the target group", k)
		}
		if !k.IsCanonical() {
			t.Fatalf("pool key %v not canonical", k)
		}
	}
	// With the knob at 1 every rebirth draws from the pool, so any flow
	// whose key changed since the knob flipped must now hold a pool key.
	g.SetCollisionFrac(1)
	initial := make(map[flow.Key]bool, len(g.flows))
	for i := range g.flows {
		initial[g.flows[i].key] = true
	}
	inPool := make(map[flow.Key]bool, len(g.pool))
	for _, k := range g.pool {
		inPool[k] = true
	}
	for g.Births() < 300 {
		g.Next()
	}
	reborn := 0
	for i := range g.flows {
		k := g.flows[i].key
		if initial[k] {
			continue
		}
		reborn++
		if !inPool[k] {
			t.Fatalf("storm rebirth key not from the pool: %v", k)
		}
	}
	if reborn == 0 {
		t.Fatal("no reborn flows observed despite recorded births")
	}
}

// TestHarnessPhases drives a small engine through all phase types and
// checks the report's accounting: budgets met, digests measured, storms and
// block storms visible in their counters.
func TestHarnessPhases(t *testing.T) {
	const slots = 1 << 13
	e := testEngine(t, slots, 2)
	churn := churnTestCfg(3000, 11)
	churn.LongIATFraction = 0.05
	churn.CollisionTable = slots
	churn.CollisionGroups = 32
	churn.PoolSize = 256
	rep, err := Run(context.Background(), Config{
		Engine:  e,
		Feeders: 2,
		Churn:   churn,
		Phases: []Phase{
			{Name: "steady", Packets: 30_000},
			{Name: "storm", Packets: 30_000, CollisionFrac: 0.8},
			{Name: "blockstorm", Packets: 30_000, BlockEvery: 200},
		},
		BlockRing: 64,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("got %d phase reports, want 3", len(rep.Phases))
	}
	var sum int64
	for _, pr := range rep.Phases {
		sum += pr.Packets
		if pr.PktsPerSec <= 0 {
			t.Fatalf("phase %s: no achieved rate", pr.Name)
		}
	}
	if sum != 90_000 {
		t.Fatalf("fed %d packets across phases, want 90000", sum)
	}
	if rep.Total.Packets != sum {
		t.Fatalf("total packets %d != phase sum %d", rep.Total.Packets, sum)
	}
	if rep.Total.Digests == 0 || rep.Total.LatencyCount == 0 {
		t.Fatal("no digests/latency observations; harness is measuring nothing")
	}
	if rep.Total.LatencyCount != rep.Total.Digests {
		t.Fatalf("latency observations %d != digests %d",
			rep.Total.LatencyCount, rep.Total.Digests)
	}
	if rep.Total.P50 <= 0 || rep.Total.P50 > rep.Total.P999 {
		t.Fatalf("implausible latency percentiles: p50=%v p999=%v",
			rep.Total.P50, rep.Total.P999)
	}
	if rep.Total.Births == 0 {
		t.Fatal("no churn during the run")
	}
	if rep.TableCap == 0 || rep.Phases[0].Occupancy <= 0 || rep.Phases[0].Occupancy > 1 {
		t.Fatalf("bad occupancy accounting: cap=%d occ=%v",
			rep.TableCap, rep.Phases[0].Occupancy)
	}
	bs := rep.Phases[2]
	if bs.BlockedFlows == 0 {
		t.Fatal("block storm left no verdicts visible at phase end")
	}
	if bs.Dropped == 0 {
		t.Fatal("block storm dropped nothing; filter never engaged")
	}
}

// TestHarnessRedeployPhase pins the redeploy phase: a mid-schedule hitless
// swap fires under live load, the adopted epoch lands in that phase's report
// and carries into later phases, and nothing is lost — the run's accounting
// stays exact across the handoff.
func TestHarnessRedeployPhase(t *testing.T) {
	e := testEngine(t, 1<<13, 2)
	supplied := 0
	rep, err := Run(context.Background(), Config{
		Engine:  e,
		Feeders: 2,
		Churn:   churnTestCfg(2000, 21),
		Phases: []Phase{
			{Name: "warm", Packets: 20_000},
			{Name: "redeploy", Packets: 20_000, Redeploy: true},
			{Name: "settle", Packets: 20_000},
		},
		Redeploy: func() (*core.Model, *rangemark.Compiled, error) {
			supplied++
			// Same tree recompiled: the swap machinery is what is under
			// test, not the retraining.
			cfg := deployCfg(t, 1<<13)
			c, err := rangemark.Compile(cfg.Model)
			return cfg.Model, c, err
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if supplied != 1 {
		t.Fatalf("Config.Redeploy called %d times, want 1", supplied)
	}
	if got := rep.Phases[1]; got.Redeploys != 1 || got.Epoch == 0 {
		t.Fatalf("redeploy phase report %+v: want Redeploys=1, Epoch>0", got)
	}
	if rep.Phases[0].Redeploys != 0 || rep.Phases[0].Epoch != 0 {
		t.Fatalf("warm phase report leaked a redeploy: %+v", rep.Phases[0])
	}
	if rep.Phases[2].Epoch != rep.Phases[1].Epoch {
		t.Fatalf("settle phase epoch %d, want %d carried forward",
			rep.Phases[2].Epoch, rep.Phases[1].Epoch)
	}
	if rep.Total.Redeploys != 1 || rep.Total.Epoch != rep.Phases[1].Epoch {
		t.Fatalf("total report %+v: redeploy not aggregated", rep.Total)
	}
	if rep.Total.Packets != 60_000 || rep.Total.Digests == 0 {
		t.Fatalf("accounting broke across the swap: %+v", rep.Total)
	}

	// A schedule that asks for a swap with no supplier must be rejected
	// before anything starts.
	_, err = Run(context.Background(), Config{
		Engine: testEngine(t, 1<<12, 1),
		Churn:  churnTestCfg(500, 5),
		Phases: []Phase{{Name: "bad", Packets: 1000, Redeploy: true}},
	})
	if err == nil {
		t.Fatal("Run accepted a redeploy phase without Config.Redeploy")
	}
}

// TestHarnessPacing pins open-loop pacing: a rate-limited run must take at
// least its scheduled duration and report near-target achieved rate.
func TestHarnessPacing(t *testing.T) {
	e := testEngine(t, 1<<12, 1)
	const packets, rate = 10_000, 50_000.0
	rep, err := Run(context.Background(), Config{
		Engine: e,
		Rate:   rate,
		Churn:  churnTestCfg(500, 3),
		Phases: []Phase{{Name: "paced", Packets: packets}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := time.Duration(float64(packets) / rate * float64(time.Second))
	if rep.Phases[0].Elapsed < want*8/10 {
		t.Fatalf("paced run finished in %v, scheduled %v — pacing inert",
			rep.Phases[0].Elapsed, want)
	}
	if got := rep.Phases[0].PktsPerSec; got > rate*1.3 {
		t.Fatalf("achieved %.0f pkts/s against target %.0f", got, rate)
	}
}

// TestHarnessWireSource pins wire-mode ingest: a recorded stream drives the
// harness end to end, counts match the recording, and exhaustion ends the
// phase cleanly.
func TestHarnessWireSource(t *testing.T) {
	flows := trace.Generate(trace.D3, 200, 17)
	pkts := trace.Interleave(flows, 30*time.Microsecond)
	var buf bytes.Buffer
	w, err := pkt.NewRecordWriter(&buf)
	if err != nil {
		t.Fatalf("NewRecordWriter: %v", err)
	}
	for i, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
		if i%9 == 0 { // interleave control noise the decoder must skip
			_ = w.WriteControl(pkt.Control{NextSID: 1}, p.TS)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	src, err := NewWireSource(&buf)
	if err != nil {
		t.Fatalf("NewWireSource: %v", err)
	}
	e := testEngine(t, 1<<13, 2)
	rep, err := Run(context.Background(), Config{
		Engine: e,
		Source: src,
		Phases: []Phase{{Name: "replay", Packets: int64(len(pkts)) + 1000}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if src.Err() != nil {
		t.Fatalf("wire source error: %v", src.Err())
	}
	if rep.Total.Packets != int64(len(pkts)) {
		t.Fatalf("fed %d packets from a %d-packet recording", rep.Total.Packets, len(pkts))
	}
	if src.Skipped() == 0 {
		t.Fatal("control records not skipped — decoder saw none")
	}
	if rep.Total.Digests == 0 {
		t.Fatal("replayed workload produced no digests")
	}

	// The replay is digest-count-identical to feeding the same packets from
	// memory (zero-copy ingest changes transport, not semantics).
	e2 := testEngine(t, 1<<13, 2)
	res, err := e2.Run(&engine.SliceSource{Pkts: pkts})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if int64(res.Stats.Digests) != rep.Total.Digests {
		t.Fatalf("wire replay digests %d != in-memory %d",
			rep.Total.Digests, res.Stats.Digests)
	}
}

// TestHarnessContextCancel pins abort behaviour: cancelling mid-run ends
// the harness with the context's error rather than wedging.
func TestHarnessContextCancel(t *testing.T) {
	e := testEngine(t, 1<<12, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = Run(ctx, Config{
			Engine: e,
			Rate:   1000, // slow enough that cancel lands mid-phase
			Churn:  churnTestCfg(200, 9),
			Phases: []Phase{{Name: "slow", Packets: 1_000_000}},
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("harness did not stop after context cancel")
	}
	if runErr == nil {
		t.Fatal("cancelled run returned nil error")
	}
}
