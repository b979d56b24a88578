// Package dataplane simulates the RMT switch pipeline SpliDT deploys onto —
// the reproduction's stand-in for the paper's Tofino1 testbed.
//
// The pipeline executes compiled SpliDT programs with the mechanism of §3.1:
// packets are parsed into PHV fields, the 5-tuple hash locates the flow's
// state in the flow table, reserved registers track the subtree ID (SID) and
// packet count, feature state accumulates through the dependency chain, and
// at each window boundary the match-key generator tables produce range marks
// that the model table matches to either a class (emitted as a digest) or
// the next SID (propagated by a recirculated control packet that also clears
// the flow's feature and dependency-chain registers).
//
// The flow table itself is a first-class subsystem (internal/flowtable) with
// a scheme knob: Config.Table selects the paper's direct-mapped register
// array (the default — colliding flows share state, as on real register
// hardware) or a d-way cuckoo table with a bounded stash whose verified
// lookups keep flows exact well past the collision-free regime.
//
// Flow-table ageing is likewise first-class, as on real packet processors.
// A positive Config.IdleTimeout arms a hierarchical timer wheel
// (internal/timerwheel): every entry carries a packet-time deadline,
// re-armed on every touch with the flow's per-class lifetime — the idle
// budget its current decision-tree leaf learned from training IAT
// statistics, rounded up to the wheel's 1ms tick — so chatty classes
// reclaim fast while long-IAT keepalive classes survive gaps a global
// timeout would evict them over. Sweep advances the wheel to the caller's
// packet time, reclaiming exactly the entries whose deadlines elapsed, and
// Evict reclaims a specific flow's entry on a controller verdict. Reclaims
// are counted in Stats.Evictions.
//
// Resource budgets are enforced at construction through the same
// resources.Profile model the design search uses, so a pipeline that
// constructs is a pipeline that fits the target.
package dataplane

import (
	"fmt"
	"time"

	"splidt/internal/core"
	"splidt/internal/flow"
	"splidt/internal/flowtable"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/timerwheel"
	"splidt/internal/trace"
)

// TableScheme selects the flow-state store the pipeline deploys
// (internal/flowtable).
type TableScheme string

// The flow-table schemes.
const (
	// TableDirect is the direct-mapped register array of the paper's
	// deployment: one slot per hash index, colliding flows share state.
	// The zero value of Config.Table selects it, so existing deployments
	// behave exactly as before the flow-table subsystem existed.
	TableDirect TableScheme = "direct"
	// TableCuckoo is the d-way set-associative store with cuckoo
	// displacement and a bounded stash: full-key verification per entry, so
	// flows never couple and exactness extends to high load factors.
	TableCuckoo TableScheme = "cuckoo"
	// TableOracle is the unbounded exact map — physically unbuildable,
	// allocates per flow, and exists as the ground truth the equivalence
	// tests compare the bounded schemes against.
	TableOracle TableScheme = "oracle"
)

// ParseTableScheme validates a scheme name ("" selects TableDirect).
func ParseTableScheme(s string) (TableScheme, error) {
	switch TableScheme(s) {
	case "", TableDirect:
		return TableDirect, nil
	case TableCuckoo:
		return TableCuckoo, nil
	case TableOracle:
		return TableOracle, nil
	default:
		return "", fmt.Errorf("unknown table scheme %q (valid: %s, %s, %s)",
			s, TableDirect, TableCuckoo, TableOracle)
	}
}

// Config assembles a deployment: the hardware target, the trained model and
// its compiled tables, and the flow-table geometry (concurrent flow slots,
// scheme, associativity).
type Config struct {
	Profile  resources.Profile
	Model    *core.Model
	Compiled *rangemark.Compiled
	// FlowSlots is the flow-table register budget: the slot-array length
	// for the direct scheme (flows hash onto slots, collisions share state,
	// as on real hardware), or the bucket-cell budget for the cuckoo scheme
	// (rounded up to a whole number of Ways-wide buckets).
	FlowSlots int
	// Table selects the flow-table scheme; the zero value is TableDirect,
	// preserving the pre-flowtable pipeline exactly.
	Table TableScheme
	// Ways is the cuckoo bucket associativity (default
	// flowtable.DefaultWays). Direct and oracle schemes ignore it.
	Ways int
	// Stash is the cuckoo overflow stash size in entries: 0 selects
	// flowtable.DefaultStash, negative disables the stash (pure bucket
	// table — overflow rejects immediately). Direct and oracle schemes
	// ignore it.
	Stash int
	// Workload, when set, is used for the recirculation budget check.
	Workload trace.Workload
	// IdleTimeout enables flow-table ageing: an entry untouched for at
	// least its lifetime (measured in packet time, not wall clock) is
	// reclaimed by the Sweep that advances past its deadline — both
	// live-idle entries and parked early-exit entries whose flow tail never
	// arrived (e.g. because the dispatcher drops a blocked flow's remaining
	// packets). The timeout is the base lifetime armed on flows not yet
	// classified onto a leaf with a trained per-class lifetime (a compiled
	// model whose largest leaf lifetime exceeds it raises the base to that,
	// so no class is evicted faster than its own training data says it
	// idles). Zero disables ageing: no wheel is built, Sweep is a no-op and
	// the pipeline behaves exactly as before the ageing subsystem existed.
	IdleTimeout time.Duration
}

// Digest is the classification record the pipeline sends to the controller
// when a flow exits the model (§3.1.2).
type Digest struct {
	Key     flow.Key
	Class   int
	At      time.Duration // absolute time of the classifying packet
	Started time.Duration // absolute time of the flow's first packet
	Packets int           // packets observed when classified
	// Epoch is the deployment epoch of the tree that classified the flow: 0
	// for the deployment the pipeline was built with, incremented by each
	// Redeploy. A controller draining a stream across a hitless swap can
	// attribute every digest to the exact tree that produced it.
	Epoch uint64
}

// TTD returns the flow's time-to-detection.
func (d Digest) TTD() time.Duration { return d.At - d.Started }

// Stats aggregates pipeline counters.
type Stats struct {
	Packets        int // data packets processed
	ControlPackets int // recirculated subtree transitions
	Digests        int // classifications emitted
	// Collisions counts packets that could not get exclusive flow state:
	// for the direct scheme, packets that hit a slot owned by another flow
	// (the flows share registers); for the cuckoo scheme, packets of flows
	// the table rejected outright (no bucket way, no displacement path, no
	// stash line — the packet passes through with no state).
	Collisions  int
	RecircBytes int // control-channel bytes
	Evictions   int // flow-table entries reclaimed by wheel expiry or Evict
	// Kicks counts cuckoo displacements: resident entries moved to their
	// alternate bucket to clear an insertion path (zero for other schemes).
	Kicks int
	// StashInserts counts cuckoo inserts that overflowed into the bounded
	// stash (zero for other schemes).
	StashInserts int
	// WheelExpiries counts entries reclaimed by the timer wheel's expiry
	// callback (each is also counted in Evictions, which totals expiries
	// and Evict reclaims).
	WheelExpiries int
	// WheelCascades[l-1] counts wheel nodes re-filed downward out of level l
	// when that level's window wrapped. High counts in the upper indices
	// mean deadlines routinely land far beyond the lower levels' spans — a
	// signal the tick or slot count is mis-sized for the deployment's
	// lifetimes.
	WheelCascades [timerwheel.DefaultLevels - 1]int
}

// Add folds another pipeline's counters into s. Every Stats field is a
// plain sum, so per-shard counters merge into exactly the totals one
// pipeline would have reported over the union of the traffic. splidt-vet's
// statsmerge analyzer enforces that every Stats field appears here, so a new
// counter cannot silently drop out of the per-shard merge.
//
//splidt:stats-complete Stats
func (s *Stats) Add(o Stats) {
	s.Packets += o.Packets
	s.ControlPackets += o.ControlPackets
	s.Digests += o.Digests
	s.Collisions += o.Collisions
	s.RecircBytes += o.RecircBytes
	s.Evictions += o.Evictions
	s.Kicks += o.Kicks
	s.StashInserts += o.StashInserts
	s.WheelExpiries += o.WheelExpiries
	for i := range s.WheelCascades {
		s.WheelCascades[i] += o.WheelCascades[i]
	}
}

// MergeStats sums per-shard counters into one aggregate.
func MergeStats(shards ...Stats) Stats {
	var out Stats
	for _, s := range shards {
		out.Add(s)
	}
	return out
}

// doneSID parks an entry after an early exit: the flow is classified but
// still has packets in flight, so the entry stays owned (no further
// inference) until the final packet frees it.
const doneSID = 0xFFFF

// Pipeline is one simulated switch pipeline with a deployed SpliDT program.
type Pipeline struct {
	cfg   Config
	parts int
	table flowtable.Store
	stats Stats
	marks []uint32 // per-window scratch, reused so Process never allocates
	// wheel is the hierarchical expiry timer (nil with ageing off — the
	// guard every wheel touch point branches on, keeping the ageing-off hot
	// path identical to the pre-ageing pipeline).
	wheel *timerwheel.Wheel
	// baseLifetime is the deadline armed on flows not yet classified onto a
	// leaf with a trained lifetime: max(IdleTimeout, largest compiled leaf
	// lifetime) — conservative before classification, refined per-leaf at
	// window boundaries.
	baseLifetime time.Duration
	// clock is the highest packet timestamp Process has seen. Deadlines are
	// armed from it (not the raw packet TS) so ageing stays monotone even
	// when a source replays a trace from time zero — the hardware analogue
	// is the switch's free-running timestamp register.
	clock time.Duration
	// epoch is the deployment epoch of the currently deployed tree (0 at
	// construction, set by Redeploy), stamped into every digest.
	epoch uint64
}

// validate runs the deployment feasibility checks New and NewShards share:
// it fails exactly when the design search's feasibility test would, using
// the same resources model.
func validate(cfg Config) error {
	if cfg.Model == nil || cfg.Compiled == nil {
		return fmt.Errorf("dataplane: model and compiled tables required")
	}
	if cfg.FlowSlots <= 0 {
		return fmt.Errorf("dataplane: non-positive flow slots")
	}
	if _, err := ParseTableScheme(string(cfg.Table)); err != nil {
		return fmt.Errorf("dataplane: %w", err)
	}
	if cfg.Ways < 0 {
		return fmt.Errorf("dataplane: negative table ways")
	}
	w := cfg.Workload
	if w.Name == "" {
		w = trace.Webserver
	}
	u := resources.EstimateSpliDT(cfg.Model, cfg.Compiled, cfg.FlowSlots, w)
	if err := cfg.Profile.Feasible(u); err != nil {
		return fmt.Errorf("dataplane: deployment infeasible: %w", err)
	}
	return nil
}

// newStore builds the configured flow-table scheme over the FlowSlots
// budget.
func newStore(cfg Config) flowtable.Store {
	switch cfg.Table {
	case TableCuckoo:
		return flowtable.NewCuckoo(flowtable.CuckooConfig{
			Capacity: cfg.FlowSlots,
			Ways:     cfg.Ways,
			Stash:    cfg.Stash,
		})
	case TableOracle:
		return flowtable.NewOracle()
	default:
		return flowtable.NewDirect(cfg.FlowSlots)
	}
}

// newPipeline assembles a pipeline over an already-validated config.
func newPipeline(cfg Config) *Pipeline {
	pl := &Pipeline{
		cfg:   cfg,
		parts: cfg.Model.NumPartitions(),
		table: newStore(cfg),
		marks: make([]uint32, cfg.Compiled.K),
	}
	if cfg.IdleTimeout > 0 {
		pl.baseLifetime = cfg.IdleTimeout
		if ml := cfg.Compiled.MaxLifetime(); ml > pl.baseLifetime {
			pl.baseLifetime = ml
		}
		pl.wheel = timerwheel.New(timerwheel.Config{OnExpire: pl.expire})
	}
	return pl
}

// expire is the wheel's expiry callback: an armed entry's deadline elapsed
// without a touch re-arming it, so its flow has been idle for at least its
// (per-class) lifetime. The wheel has already unlinked the node; recover the
// entry through the back-pointer and free its cell.
//
//splidt:hotpath
func (pl *Pipeline) expire(n *timerwheel.Node) {
	e := n.Data.(*flowtable.Entry)
	pl.table.Release(e)
	pl.stats.Evictions++
	pl.stats.WheelExpiries++
}

// New validates the deployment against the hardware profile and builds the
// pipeline.
func New(cfg Config) (*Pipeline, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return newPipeline(cfg), nil
}

// NewShards validates the deployment once and builds n pipeline replicas of
// it, together owning exactly the cfg.FlowSlots register budget: each shard
// gets FlowSlots / n slots and the first FlowSlots % n shards take one
// extra, so no slot of the budget is lost to integer division (a shard
// still gets at least 1 slot when FlowSlots < n). The replicas share the
// compiled tables read-only — the tables are frozen here so concurrent
// lookups never mutate them — and each replica keeps a private flow table,
// so a dispatcher that keys flows onto shards with flow.Key.Shard
// preserves single-pipeline per-flow semantics. This is the multi-pipe
// construction the sharded engine runs.
func NewShards(cfg Config, n int) ([]*Pipeline, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataplane: non-positive shard count %d", n)
	}
	// Feasibility is per shard: each replica is its own pipeline with its
	// own register budget, so what must fit the profile is the largest
	// shard's slice of the slot budget, not the total — that is the whole
	// point of scaling flow capacity out across pipes.
	shardMax := cfg
	shardMax.FlowSlots = cfg.FlowSlots / n
	if cfg.FlowSlots%n != 0 {
		shardMax.FlowSlots++
	}
	if shardMax.FlowSlots < 1 {
		shardMax.FlowSlots = 1
	}
	if err := validate(shardMax); err != nil {
		return nil, err
	}
	cfg.Compiled.Freeze()
	per, rem := cfg.FlowSlots/n, cfg.FlowSlots%n
	shards := make([]*Pipeline, n)
	for i := range shards {
		slots := per
		if i < rem {
			slots++
		}
		if slots < 1 {
			slots = 1
		}
		shardCfg := cfg
		shardCfg.FlowSlots = slots
		shards[i] = newPipeline(shardCfg)
	}
	return shards, nil
}

// registerHash returns the canonical key's register hash (ck.Hash(), the
// CRC32 the flow table indexes with) without recomputing it when it can:
// a packet source's dispatch hash is flow.Mix64 of exactly that CRC, so
// un-mixing a stamped one recovers it. An unstamped packet (zero), or a
// dispatch hash that cannot have come from a 32-bit CRC (high bits set
// after un-mixing), falls back to hashing the key.
//
//splidt:hotpath
func registerHash(shardHash uint64, ck flow.Key) uint32 {
	if shardHash != 0 {
		if h := flow.Unmix64(shardHash); h>>32 == 0 {
			return uint32(h)
		}
	}
	return ck.Hash()
}

// Process runs one packet through the pipeline. It returns a non-nil Digest
// when the packet triggered a final classification.
//
//splidt:hotpath
func (pl *Pipeline) Process(p pkt.Packet) *Digest {
	pl.stats.Packets++
	if p.TS > pl.clock {
		pl.clock = p.TS
	}
	ck := p.Key.Canonical()
	e, st := pl.table.AcquireHashed(ck, registerHash(p.ShardHash, ck))
	switch st {
	case flowtable.StatusFresh:
		// Fresh entry: activate the root subtree. With ageing on the
		// flow starts on the base lifetime — the most conservative trained
		// lifetime — until a window boundary classifies it onto a leaf.
		e.SID = 1
		e.Started = p.TS
		e.State.Reset()
		e.PktCount = 0
		if pl.wheel != nil {
			e.Lifetime = pl.baseLifetime
		}
	case flowtable.StatusShared:
		// Direct-scheme hash collision: on register hardware the flows
		// silently share state. Count it and proceed with shared registers.
		pl.stats.Collisions++
	case flowtable.StatusFull:
		// Cuckoo-scheme insert rejection: the table and stash are full, so
		// the flow gets no state and the packet passes through
		// unclassified. Count it as a collision — a packet denied exclusive
		// flow state — and move on; a later packet retries the insert once
		// entries free up.
		pl.stats.Collisions++
		return nil
	}
	if e.SID == doneSID {
		// Parked entry: the early-exited owner holds the registers until its
		// flow-end packet arrives. This mirrors the hardware semantics: the
		// SID register reads doneSID for every packet that reaches it, which
		// gates the feature and model tables off, so a colliding flow's
		// packets pass through unclassified and leave no state — they are
		// counted above as collisions and otherwise ignored. The colliding
		// flow gets no inference until the entry frees (flow end of the
		// owner, Evict, or idle expiry). Only the owner re-arms the parked
		// entry's deadline: collider packets are not folded into its state,
		// and letting them keep a dead parked entry alive would starve the
		// collider of its slot forever — expiry must be able to reclaim a
		// parked entry whose owner went away even while colliders still
		// hash onto it. (Verified schemes never share, so there st is
		// always Owner here.)
		if st != flowtable.StatusShared {
			if p.Seq >= p.FlowSize {
				pl.table.Release(e)
			} else if pl.wheel != nil {
				pl.wheel.Schedule(e.Timer(), pl.clock+e.Lifetime)
			}
		}
		return nil
	}
	// Live entry: every packet that reaches it re-arms its deadline one
	// lifetime out, direct-scheme colliders included — they genuinely share
	// the registers (their packets fold into the window state below), so
	// the entry is live as long as anything hits it, like the hardware
	// timestamp register written on access. O(1): a later deadline only
	// updates the node's due tick (the wheel re-files it lazily).
	if pl.wheel != nil {
		pl.wheel.Schedule(e.Timer(), pl.clock+e.Lifetime)
	}

	// Feature collection and engineering: fold the packet into the window
	// registers (simple accumulators, dependency chain, k feature slots).
	e.State.Update(p)
	e.PktCount++

	if !pl.windowEnd(p) {
		return nil
	}

	// Subtree model prediction: key generators → range marks → model table.
	vec := e.State.Snapshot()
	marks := pl.cfg.Compiled.MarksInto(int(e.SID), vec[:], pl.marks)
	rule, ok := pl.cfg.Compiled.Lookup(int(e.SID), marks)
	if !ok {
		// Model tables partition the mark space; a miss means the deployed
		// rules are corrupt.
		//splidt:allow fmt,box — cold panic path: corrupt deployment, never taken per-packet
		panic(fmt.Sprintf("dataplane: model table miss at SID %d marks %v", e.SID, marks))
	}

	if p.Seq >= p.FlowSize || rule.Exit {
		//splidt:allow alloc — one digest per classified flow, the pipeline's output value
		d := &Digest{
			Key:     ck,
			Class:   rule.Class,
			At:      p.TS,
			Started: e.Started,
			Packets: int(e.PktCount),
			Epoch:   pl.epoch,
		}
		pl.stats.Digests++
		if p.Seq >= p.FlowSize {
			pl.table.Release(e) // flow over: free the entry
		} else {
			e.SID = doneSID // early exit: park until the flow ends
			e.State.Reset()
			if pl.wheel != nil {
				// The flow is now classified: park it on its leaf's trained
				// lifetime so a dead tail frees the cell on the class's own
				// idle budget, not the global one.
				if rule.Lifetime > 0 {
					e.Lifetime = rule.Lifetime
				}
				pl.wheel.Schedule(e.Timer(), pl.clock+e.Lifetime)
			}
		}
		return d
	}

	// In-band control channel: one resubmitted packet updates the SID and
	// clears the feature and dependency-chain registers (§3.1.3).
	pl.stats.ControlPackets++
	pl.stats.RecircBytes += pkt.ControlPacketBytes
	e.SID = uint16(rule.Next)
	e.State.Reset()
	if pl.wheel != nil {
		// Window boundary: adopt the leaf's per-class lifetime (if trained)
		// and re-arm — the packet's earlier touch armed the old lifetime.
		if rule.Lifetime > 0 {
			e.Lifetime = rule.Lifetime
		}
		pl.wheel.Schedule(e.Timer(), pl.clock+e.Lifetime)
	}
	return nil
}

// ProcessBytes parses a serialised data packet (pkt.Marshal layout) and
// runs it through the pipeline — the path a wire-attached traffic source
// would take. ts is the capture timestamp. Control packets (pipeline-
// internal) are rejected: the simulator generates its own recirculations.
func (pl *Pipeline) ProcessBytes(data []byte, ts time.Duration) (*Digest, error) {
	if pkt.IsControl(data) {
		return nil, fmt.Errorf("dataplane: control packets are pipeline-internal")
	}
	p, err := pkt.Unmarshal(data, ts)
	if err != nil {
		return nil, err
	}
	return pl.Process(p), nil
}

// windowEnd applies the model's window policy: uniform partitions by
// default, non-uniform boundaries for adaptive-window models.
//
//splidt:hotpath
func (pl *Pipeline) windowEnd(p pkt.Packet) bool {
	if b := pl.cfg.Model.Cfg.WindowBounds; b != nil {
		return p.IsWindowEndBounds(b)
	}
	return p.IsWindowEnd(pl.parts)
}

// Stats returns a copy of the counters, folding in the flow table's
// placement counters (kicks, stash inserts) so they merge and delta like
// every other pipeline counter.
func (pl *Pipeline) Stats() Stats {
	s := pl.stats
	ts := pl.table.Stats()
	s.Kicks = ts.Kicks
	s.StashInserts = ts.StashInserts
	if pl.wheel != nil {
		ws := pl.wheel.Stats()
		for i := 0; i < len(s.WheelCascades) && i < len(ws.Cascades); i++ {
			s.WheelCascades[i] = ws.Cascades[i]
		}
	}
	return s
}

// TableStats returns the flow table's own counters — occupancy and stash
// gauges included, which have no place in the monotone Stats counters.
func (pl *Pipeline) TableStats() flowtable.Stats { return pl.table.Stats() }

// ActiveFlows returns the number of occupied flow-table entries. The count
// is maintained incrementally by the store, so reading it is O(1) — cheap
// enough for the engine's per-burst live snapshots.
func (pl *Pipeline) ActiveFlows() int { return pl.table.Occupied() }

// Sweep drives flow-table ageing from packet time: it advances the expiry
// wheel to now, firing exactly the entries whose armed deadlines elapsed —
// live entries of flows that went quiet as well as parked early-exit
// entries whose tail was dropped upstream and would otherwise leak forever
// (stash lines included, under the cuckoo scheme). now is packet time (the
// caller's monotone view of the traffic clock, e.g. the newest timestamp a
// shard worker has processed), never wall clock, so expiry is
// deterministic for a given packet sequence and sweep schedule. It returns
// how many entries it reclaimed; the expiry callback counts them in
// Stats.Evictions and Stats.WheelExpiries. With IdleTimeout zero, ageing is
// disabled and Sweep does nothing. Sweep never allocates and costs
// O(expired) plus O(ticks crossed), so callers sweep once per burst.
//
//splidt:hotpath
func (pl *Pipeline) Sweep(now time.Duration) int {
	if pl.wheel == nil {
		return 0
	}
	return pl.wheel.Advance(now)
}

// Evict frees the flow's table entry immediately if the flow currently
// owns one, returning whether a reclaim happened. This is the
// controller-initiated ageing path: when policy blocks a flow whose tail
// will be dropped upstream, the entry would otherwise stay parked until its
// idle deadline expires. Evict works with ageing disabled, and it is
// a no-op when the flow holds no entry — including the direct-scheme case
// of a slot held by a colliding flow (the slot is that flow's state now;
// evicting it would punish an innocent bystander).
func (pl *Pipeline) Evict(k flow.Key) bool {
	if !pl.table.Evict(k.Canonical()) {
		return false
	}
	pl.stats.Evictions++
	return true
}

// Clock returns the pipeline's packet-time clock: the newest timestamp
// Process has seen. It is the natural `now` for Sweep.
func (pl *Pipeline) Clock() time.Duration { return pl.clock }

// Epoch returns the deployment epoch of the currently deployed tree.
func (pl *Pipeline) Epoch() uint64 { return pl.epoch }

// CheckRedeploy runs the same feasibility validation New would on this
// pipeline's deployment with the model and compiled tables swapped for the
// candidate pair — the admission check a hitless redeploy performs before
// touching any replica. Geometry (slots, scheme, ageing) is the deployed
// one; only the tree changes.
func (pl *Pipeline) CheckRedeploy(m *core.Model, c *rangemark.Compiled) error {
	cfg := pl.cfg
	cfg.Model = m
	cfg.Compiled = c
	return validate(cfg)
}

// Redeploy swaps a freshly compiled tree into the running pipeline — the
// per-replica half of the engine's hitless redeploy. The caller must be the
// goroutine that owns the pipeline (the shard worker, at a burst boundary)
// and must have validated the pair with CheckRedeploy and frozen the
// compiled tables.
//
// Flow state carries across the swap: every live entry keeps its SID, packet
// count, window registers, and armed timer, so flows mid-tree continue
// exactly where they were — the new tables are a superset-compatible drop-in
// when the tree is unchanged. Entries whose SID does not exist in the
// new tree (the tree shrank or was restructured) are reset to the root
// subtree with cleared window state: they re-classify under the new tree
// rather than hitting a model-table miss. Parked early-exit entries (doneSID)
// are left alone — they are already classified and only wait for their flow
// tail. With ageing on, the base lifetime is recomputed from the new
// tree's trained per-leaf budgets; per-entry lifetimes re-adopt the new
// leaves' budgets naturally at each flow's next window boundary.
func (pl *Pipeline) Redeploy(m *core.Model, c *rangemark.Compiled, epoch uint64) {
	pl.cfg.Model = m
	pl.cfg.Compiled = c
	pl.parts = m.NumPartitions()
	if c.K != len(pl.marks) {
		pl.marks = make([]uint32, c.K)
	}
	if pl.wheel != nil {
		pl.baseLifetime = pl.cfg.IdleTimeout
		if ml := c.MaxLifetime(); ml > pl.baseLifetime {
			pl.baseLifetime = ml
		}
	}
	pl.table.Walk(func(e *flowtable.Entry) {
		if e.SID == doneSID || c.HasSID(int(e.SID)) {
			return
		}
		// Orphaned SID: the new tree has no such subtree. Restart the flow's
		// inference at the root, on the (new) base lifetime.
		e.SID = 1
		e.State.Reset()
		e.PktCount = 0
		if pl.wheel != nil {
			e.Lifetime = pl.baseLifetime
			pl.wheel.Schedule(e.Timer(), pl.clock+e.Lifetime)
		}
	})
	pl.epoch = epoch
}

// TableCap returns the flow table's total cell count (slot-array length
// for direct; bucket cells plus stash for cuckoo).
func (pl *Pipeline) TableCap() int { return pl.table.Cap() }

// countActiveSlots rescans the flow table; tests use it to cross-check the
// incremental ActiveFlows counter.
func (pl *Pipeline) countActiveSlots() int { return pl.table.ScanOccupied() }

// Replay interleaves labelled flows (flow i shifted by i × spacing), runs
// every packet through the pipeline in timestamp order, and returns the
// digests in emission order keyed back to ground truth.
type ReplayResult struct {
	Digest Digest
	Label  int // ground-truth class of the digested flow
}

// Replay processes complete flows through the pipeline.
func (pl *Pipeline) Replay(flows []trace.LabeledFlow, spacing time.Duration) []ReplayResult {
	labels := make(map[flow.Key]int, len(flows))
	for _, f := range flows {
		labels[f.Key] = f.Label
	}
	var out []ReplayResult
	for _, p := range trace.Interleave(flows, spacing) {
		if d := pl.Process(p); d != nil {
			out = append(out, ReplayResult{Digest: *d, Label: labels[d.Key]})
		}
	}
	return out
}
