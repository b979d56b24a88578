package dataplane

import (
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/flowtable"
	"splidt/internal/timerwheel"
	"splidt/internal/trace"
)

// findEarlyExit returns a test flow that exits the model before its final
// packet — the shape whose register slot parks at doneSID until the flow's
// last packet arrives. Fed through a clean large pipeline, such a flow's
// digest reports fewer packets than the flow carries.
func findEarlyExit(t *testing.T, cfg Config, flows []trace.LabeledFlow) trace.LabeledFlow {
	t.Helper()
	pl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, f := range flows {
		var d *Digest
		for _, p := range f.Packets {
			if got := pl.Process(p); got != nil {
				d = got
			}
		}
		if d != nil && d.Packets < len(f.Packets) {
			return f
		}
	}
	t.Fatal("no early-exiting flow in the test set; ageing tests need one")
	return trace.LabeledFlow{}
}

// ageingDeploy builds a deployment for the ageing tests plus its held-out
// flows.
func ageingDeploy(t *testing.T, slots int, idle time.Duration) (Config, []trace.LabeledFlow) {
	t.Helper()
	cfg := core.Config{Partitions: []int{2, 2}, FeaturesPerSubtree: 3, NumClasses: 4}
	pl, _, testFlows := deploy(t, trace.D2, 300, cfg, slots)
	dcfg := pl.cfg
	dcfg.IdleTimeout = idle
	return dcfg, testFlows
}

// TestSweepReclaimsIdleAndParked is the core ageing property: a live slot
// whose flow went quiet and a parked early-exit slot whose tail never
// arrived (the blocked-flow leak) are both reclaimed once idle for the
// timeout — not a packet-time earlier, and no later than one wheel tick
// after.
func TestSweepReclaimsIdleAndParked(t *testing.T) {
	const idle = 30 * time.Second // longer than any intra-workload gap
	dcfg, testFlows := ageingDeploy(t, 1<<12, idle)

	early := findEarlyExit(t, dcfg, testFlows)
	pl, err := New(dcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Park a slot: early-exited flow with its flow-end packet withheld —
	// exactly what happens when a controller blocks the flow and the
	// dispatcher drops its tail.
	for _, p := range early.Packets[:len(early.Packets)-1] {
		pl.Process(p)
	}
	parkClock := pl.Clock()
	// A live-idle slot: another flow's first packet only.
	var other trace.LabeledFlow
	for _, f := range testFlows {
		if f.Key != early.Key {
			other = f
			break
		}
	}
	pl.Process(other.Packets[0])
	liveClock := pl.Clock() // >= parkClock: the clock is monotone
	if pl.ActiveFlows() != 2 {
		t.Fatalf("ActiveFlows = %d, want 2 (parked + live-idle)", pl.ActiveFlows())
	}

	// Up to the instant the first slot has been idle for the timeout,
	// nothing is reclaimed.
	if got := pl.Sweep(pl.Clock()) + pl.Sweep(parkClock+idle-1); got != 0 {
		t.Fatalf("sweep before the timeout evicted %d slots, want 0", got)
	}
	if pl.ActiveFlows() != 2 || pl.Stats().Evictions != 0 {
		t.Fatalf("premature eviction: active=%d evictions=%d", pl.ActiveFlows(), pl.Stats().Evictions)
	}

	// One wheel tick past the later slot's timeout, both are reclaimed.
	if got := pl.Sweep(liveClock + idle + timerwheel.DefaultTick); got != 2 {
		t.Fatalf("sweep after timeout evicted %d slots, want 2", got)
	}
	if pl.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after sweep, want 0", pl.ActiveFlows())
	}
	if pl.ActiveFlows() != pl.countActiveSlots() {
		t.Fatalf("incremental ActiveFlows %d != scanned %d after sweep", pl.ActiveFlows(), pl.countActiveSlots())
	}
	if got := pl.Stats().Evictions; got != 2 {
		t.Fatalf("Stats.Evictions = %d, want 2", got)
	}

	// A reclaimed slot is a fresh slot: the parked flow's key can activate
	// again.
	pl.Process(early.Packets[0])
	if pl.ActiveFlows() != 1 {
		t.Fatalf("reclaimed slot did not reactivate: active=%d", pl.ActiveFlows())
	}
}

// TestSweepDisabled pins that IdleTimeout zero keeps the pre-ageing
// behaviour: no wheel is built, no entry is armed, and Sweep is a no-op
// regardless of how stale the slots are.
func TestSweepDisabled(t *testing.T) {
	dcfg, testFlows := ageingDeploy(t, 1<<12, 0)
	pl, err := New(dcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if pl.wheel != nil {
		t.Fatal("timer wheel built with ageing off")
	}
	pl.Process(testFlows[0].Packets[0])
	if pl.Sweep(pl.Clock()+time.Hour) != 0 {
		t.Fatal("disabled sweep evicted slots")
	}
	if pl.ActiveFlows() != 1 || pl.Stats().Evictions != 0 {
		t.Fatalf("disabled ageing mutated state: active=%d evictions=%d", pl.ActiveFlows(), pl.Stats().Evictions)
	}
	pl.table.Walk(func(e *flowtable.Entry) {
		if e.Timer().Armed() || e.Lifetime != 0 {
			t.Fatal("entry armed with ageing off")
		}
	})
}

// TestEvictExplicit covers the controller-initiated reclaim path: the
// owner's eviction frees the slot (ageing disabled included), a colliding
// non-owner's does not, and eviction is idempotent.
func TestEvictExplicit(t *testing.T) {
	dcfg, testFlows := ageingDeploy(t, 1<<12, 0)
	dcfg.FlowSlots = 1 // force both flows onto one slot
	pl, err := New(dcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, b := testFlows[0], testFlows[1]
	pl.Process(a.Packets[0])
	if pl.ActiveFlows() != 1 {
		t.Fatalf("ActiveFlows = %d, want 1", pl.ActiveFlows())
	}
	// b hashes onto the same (only) slot but does not own it: evicting b
	// must not free a's state.
	if pl.Evict(b.Key) {
		t.Fatal("evicting a non-owner reclaimed the slot")
	}
	if !pl.Evict(a.Key) {
		t.Fatal("owner eviction failed")
	}
	if pl.ActiveFlows() != 0 || pl.Stats().Evictions != 1 {
		t.Fatalf("after evict: active=%d evictions=%d, want 0/1", pl.ActiveFlows(), pl.Stats().Evictions)
	}
	if pl.Evict(a.Key) {
		t.Fatal("evicting an empty slot reported a reclaim")
	}
	// Direction symmetry: the reverse key evicts the same slot.
	pl.Process(a.Packets[0])
	if !pl.Evict(a.Key.Reverse()) {
		t.Fatal("reverse-direction eviction failed")
	}
}

// TestParkedSlotCollisionAccounting pins the hardware semantics of a
// doneSID slot (satellite of the ageing work): packets of a different flow
// that hash onto a parked slot are counted as collisions and otherwise
// ignored — no digest, no state perturbation, no slot-count change — until
// the owner's flow-end packet frees the slot, after which the colliding
// flow gets service again.
func TestParkedSlotCollisionAccounting(t *testing.T) {
	dcfg, testFlows := ageingDeploy(t, 1<<12, 0)
	early := findEarlyExit(t, dcfg, testFlows)
	dcfg.FlowSlots = 1
	pl, err := New(dcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Park the only slot: early-exited owner, flow-end packet withheld.
	for _, p := range early.Packets[:len(early.Packets)-1] {
		pl.Process(p)
	}
	if pl.countActiveSlots() != 1 {
		t.Fatal("setup: slot not occupied")
	}
	var g trace.LabeledFlow
	for _, f := range testFlows {
		if f.Key != early.Key {
			g = f
			break
		}
	}

	before := pl.Stats()
	const n = 3
	for _, p := range g.Packets[:n] {
		if d := pl.Process(p); d != nil {
			t.Fatal("collider on a parked slot produced a digest")
		}
	}
	after := pl.Stats()
	if got := after.Collisions - before.Collisions; got != n {
		t.Fatalf("parked-slot collisions = %d, want %d (one per swallowed packet)", got, n)
	}
	if after.Packets-before.Packets != n {
		t.Fatal("swallowed packets must still count as processed")
	}
	if after.Digests != before.Digests || after.ControlPackets != before.ControlPackets {
		t.Fatal("collider perturbed parked-slot inference state")
	}
	if pl.ActiveFlows() != 1 {
		t.Fatalf("ActiveFlows = %d, want 1 (collider must not re-activate a parked slot)", pl.ActiveFlows())
	}

	// The owner's flow-end packet frees the slot; the colliding flow's next
	// packet then claims it as a fresh activation.
	pl.Process(early.Packets[len(early.Packets)-1])
	if pl.ActiveFlows() != 0 {
		t.Fatalf("owner flow-end did not free the parked slot (active=%d)", pl.ActiveFlows())
	}
	pl.Process(g.Packets[n])
	if pl.ActiveFlows() != 1 {
		t.Fatal("collider not served after the parked slot freed")
	}
}

// TestSweepReclaimsParkedUnderCollisions pins that collider packets do not
// re-arm a parked-dead slot's deadline: the owner is gone (tail dropped),
// the collider's packets are swallowed, and expiry must still free the
// slot so the collider finally gets service — idle is measured from the
// owner's last packet, not the collider's.
func TestSweepReclaimsParkedUnderCollisions(t *testing.T) {
	const idle = 2 * time.Second
	dcfg, testFlows := ageingDeploy(t, 1<<12, idle)
	early := findEarlyExit(t, dcfg, testFlows)
	dcfg.FlowSlots = 1
	pl, err := New(dcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Park the slot, owner's tail withheld (the leak shape).
	for _, p := range early.Packets[:len(early.Packets)-1] {
		pl.Process(p)
	}
	parkClock := pl.Clock()

	// Collider traffic one second later: swallowed on the parked slot, and
	// it must not reset the slot's age.
	var g trace.LabeledFlow
	for _, f := range testFlows {
		if f.Key != early.Key {
			g = f
			break
		}
	}
	collide := g.Packets[0]
	collide.TS = parkClock + time.Second
	pl.Process(collide)

	// Not before the owner's timeout...
	if got := pl.Sweep(parkClock + idle - 1); got != 0 {
		t.Fatalf("sweep before the timeout evicted %d slots, want 0", got)
	}
	// ...but within a wheel tick of two seconds after the owner's last
	// packet — only one second after the collider's — the slot is idle for
	// the timeout and must go. Had the collider re-armed the deadline, this
	// sweep would free nothing.
	if got := pl.Sweep(parkClock + idle + timerwheel.DefaultTick); got != 1 {
		t.Fatalf("sweep evicted %d slots, want 1 (collider kept the dead parked slot alive)", got)
	}
	if pl.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after sweep, want 0", pl.ActiveFlows())
	}
	// The collider finally gets the slot.
	next := g.Packets[1]
	next.TS = parkClock + idle + timerwheel.DefaultTick
	pl.Process(next)
	if pl.ActiveFlows() != 1 || pl.countActiveSlots() != 1 {
		t.Fatal("collider not served after the dead parked slot was reclaimed")
	}
}

// TestNewShardsRemainder pins the register-budget fix: FlowSlots that do
// not divide evenly by the shard count must still be fully distributed
// (first shards take the remainder), not silently truncated.
func TestNewShardsRemainder(t *testing.T) {
	dcfg, _ := ageingDeploy(t, 1000, 0)
	cases := []struct {
		slots, n int
		want     []int
	}{
		{1000, 3, []int{334, 333, 333}},
		{1000, 7, []int{143, 143, 143, 143, 143, 143, 142}},
		{5, 3, []int{2, 2, 1}},
		{2, 4, []int{1, 1, 1, 1}}, // budget < shards: every shard still gets a slot
		{1 << 16, 4, []int{1 << 14, 1 << 14, 1 << 14, 1 << 14}},
	}
	for _, tc := range cases {
		cfg := dcfg
		cfg.FlowSlots = tc.slots
		shards, err := NewShards(cfg, tc.n)
		if err != nil {
			t.Fatalf("NewShards(%d slots, %d shards): %v", tc.slots, tc.n, err)
		}
		total := 0
		for i, s := range shards {
			if got := s.TableCap(); got != tc.want[i] {
				t.Fatalf("%d slots / %d shards: shard %d has %d slots, want %d",
					tc.slots, tc.n, i, got, tc.want[i])
			}
			total += s.TableCap()
		}
		if tc.slots >= tc.n && total != tc.slots {
			t.Fatalf("%d slots / %d shards: distributed %d, lost %d",
				tc.slots, tc.n, total, tc.slots-total)
		}
	}
}
