package dataplane

import (
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

// lifetimeDeploy trains a model on a heavy-tailed workload
// (LongIATFraction of the flows rewritten into keepalive patterns with
// 0.6–2s gaps) and returns a deployment config plus the packet stream. With
// lifetimes set, training sees the same heavy-tailed flows, so the leaves
// their windows route to learn multi-second idle budgets; without, every
// leaf falls back to the deployment's global IdleTimeout. Lifetimes are
// stamped onto an already-trained tree, so both models classify alike.
func lifetimeDeploy(t *testing.T, lifetimes bool) (Config, []trace.LabeledFlow) {
	t.Helper()
	flows := trace.GenerateWith(trace.D3, 120, 33, trace.GenConfig{LongIATFraction: 0.3})
	samples := trace.BuildSamples(flows, 2)
	m, err := core.Train(samples, core.Config{
		Partitions: []int{3, 2}, FeaturesPerSubtree: 4, NumClasses: 13,
		Lifetimes: lifetimes,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := c.MaxLifetime() > 0; got != lifetimes {
		t.Fatalf("trained model carries leaf lifetimes: %v, want %v", got, lifetimes)
	}
	return Config{
		Profile: resources.Tofino1(), Model: m, Compiled: c, FlowSlots: 1 << 16,
	}, flows
}

// runExpiry replays the interleaved stream through one pipeline, driving
// expiry from packet time once per 16-packet burst — the engine's schedule.
func runExpiry(t *testing.T, cfg Config, flows []trace.LabeledFlow) Stats {
	t.Helper()
	pl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, p := range trace.Interleave(flows, time.Millisecond) {
		pl.Process(p)
		if i%16 == 15 {
			pl.Sweep(pl.Clock())
		}
	}
	return pl.Stats()
}

// TestGlobalLifetimeEvictsKeepalivesTrainedKeeps is the per-class-lifetime
// headline pin. Every flow in the workload runs to completion, so its final
// packet releases its entry — any expiry eviction reclaims a LIVE flow.
// Over a model trained without lifetimes, every flow gets the global idle
// timeout, tuned for the chatty traffic (300ms, well over its IATs), and
// expiry demonstrably evicts the heavy-tailed keepalive flows mid-gap (their
// idle periods are 0.6–2s by construction). On the same timeout, the model
// trained with per-leaf lifetimes from those same gaps keeps every flow
// alive to its natural end — and emits exactly the digest stream of an
// expiry-free pipeline.
func TestGlobalLifetimeEvictsKeepalivesTrainedKeeps(t *testing.T) {
	cfg, flows := lifetimeDeploy(t, true)
	gcfg, _ := lifetimeDeploy(t, false)
	const timeout = 300 * time.Millisecond

	// Baseline: no expiry at all — the digest stream ageing must not alter.
	base := runExpiry(t, cfg, flows)
	if base.Evictions != 0 {
		t.Fatalf("baseline evicted %d entries with expiry disabled", base.Evictions)
	}
	if gbase := runExpiry(t, gcfg, flows); gbase != base {
		t.Fatalf("lifetime-free model classifies differently:\nbase   %+v\nglobal %+v", base, gbase)
	}

	gcfg.IdleTimeout = timeout
	global := runExpiry(t, gcfg, flows)
	if global.Evictions == 0 || global.WheelExpiries != global.Evictions {
		t.Fatalf("global timeout evicted %d (%d expiries); the keepalive workload is not exercising expiry",
			global.Evictions, global.WheelExpiries)
	}

	cfg.IdleTimeout = timeout
	trained := runExpiry(t, cfg, flows)
	if trained.Evictions != 0 || trained.WheelExpiries != 0 {
		t.Fatalf("wheel evicted %d live flows (%d expiries) despite per-class lifetimes",
			trained.Evictions, trained.WheelExpiries)
	}
	if trained.Digests != base.Digests || trained.Packets != base.Packets ||
		trained.ControlPackets != base.ControlPackets {
		t.Fatalf("per-class lifetimes perturbed inference:\nbase    %+v\ntrained %+v", base, trained)
	}
	// The global timeout's mid-gap evictions are visible in the digest
	// stream: each evicted keepalive restarts at the root subtree and
	// classifies again.
	if global.Digests <= base.Digests {
		t.Fatalf("global-timeout digests %d <= baseline %d: evictions did not hit live flows",
			global.Digests, base.Digests)
	}
}
