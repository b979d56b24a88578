// Package splidt is the public API of the SpliDT reproduction: partitioned
// decision trees for scalable stateful inference at line rate (SIGCOMM
// 2025).
//
// The package re-exports the system's building blocks under one roof:
//
//   - Datasets and workloads: Generate, BuildSamples, Split, Webserver,
//     Hadoop — synthetic stand-ins for the paper's CIC datasets and
//     datacenter environments.
//   - Training: Train with a Config (partition sizes, features-per-subtree
//     k, classes) runs the paper's Algorithm 1 and returns a Model that
//     classifies flows window-by-window.
//   - Compilation: Compile lowers a Model to TCAM artifacts with the Range
//     Marking algorithm (feature tables plus a one-rule-per-leaf model
//     table).
//   - Deployment: Deploy validates the artifacts against a hardware
//     Profile and returns a simulated RMT Pipeline that executes per-packet
//     inference with recirculated subtree transitions.
//   - Design search: DesignSearch runs the Bayesian-optimisation loop over
//     depth, k, and partitioning, returning the (F1, #flows) Pareto
//     frontier.
//   - Execution at scale: NewEngine builds a sharded multi-worker engine —
//     N pipeline replicas fed by a flow-hash dispatcher over bounded MPSC
//     burst queues — that runs one deployment across every core while
//     preserving single-pipeline digest semantics. NewStream provides the
//     lazy line-rate workload source that feeds it, and EngineResult
//     reports merged stats plus a Throughput rate summary.
//   - Streaming sessions: Engine.Start opens a long-lived EngineSession.
//     Feed pushes packet batches without ever blocking (backpressure is
//     surfaced as ErrBackpressure plus a counter, never a silent stall),
//     shard workers append each burst's digests to the session's digest
//     log, Digests/Poll drain that log through one delivery cursor while
//     traffic is still flowing, Snapshot reads live merged stats, Block
//     installs mid-run drop verdicts, and Close drains gracefully into a
//     deterministic final EngineResult. Engine.Run is a thin batch wrapper
//     over Start/Feed/Close — existing callers keep working unchanged and
//     get a digest-multiset-identical result, so migration is optional,
//     not forced.
//   - Live control loop: Controller.Serve consumes a session's digest
//     stream and feeds ActionBlock verdicts straight back into the
//     session's drop filter, closing the paper's detect→block loop while
//     the flow's packets are still arriving.
//   - Flow-table ageing with per-class lifetimes: DeployConfig.IdleTimeout
//     arms a per-shard hierarchical timing wheel driven by packet time. Every
//     flow entry carries a deadline re-armed on each touch, and idle
//     entries are reclaimed in O(expired) as packet time advances —
//     including parked early-exit slots whose tails the dispatcher dropped
//     — while Session.Block evicts the blocked flow's slot immediately, so
//     long-lived sessions keep ActiveFlows bounded (evictions are counted in
//     Stats.Evictions, expiries in PipelineStats.WheelExpiries). With
//     Config.Lifetimes, training derives a per-leaf idle lifetime from each
//     leaf's IAT statistics, so chatty classes expire fast while keepalive
//     classes (GenerateWith's LongIATFraction builds such workloads)
//     survive gaps the global IdleTimeout would evict them over.
//   - Associative flow tables: DeployConfig.Table selects the flow-state
//     store. The default TableDirect is the paper's direct-mapped register
//     array, where hash collisions couple flows; TableCuckoo deploys a
//     d-way set-associative table (Ways) with cuckoo displacement and a
//     bounded stash (Stash) whose full-key verification keeps every flow's
//     state private — inference stays exact at load factors where the
//     direct array demonstrably diverges (GenerateColliding builds the
//     adversarial workload; displacement kicks and stash inserts surface
//     in PipelineStats).
//   - Fault tolerance & hitless redeploy: a panicking shard worker is
//     quarantined in isolation — its backlog drains to a drop counter
//     while every other shard keeps processing — with the typed cause
//     (ShardPanicError) surfaced through Session.Health and Session.Err
//     and wrapped into every later Feed error. Close and feeder flushes
//     are deadline-bounded (ErrShutdownTimeout) so a stuck worker cannot
//     wedge a caller. Session.Redeploy swaps a freshly compiled tree into
//     a live session via an epoch-stamped per-shard handoff at burst
//     boundaries: flow state carries across the swap, zero packets drop,
//     and every Digest records the deploy Epoch that classified it.
//
// See examples/quickstart for the end-to-end path, cmd/splidt-engine (and
// its -live mode) for sharded execution, and examples/livecontrol for the
// streaming detect→block loop.
package splidt

import (
	"time"

	"splidt/internal/baselines"
	"splidt/internal/bo"
	"splidt/internal/controller"
	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/experiments"
	"splidt/internal/flow"
	"splidt/internal/flowtable"
	"splidt/internal/metrics"
	"splidt/internal/p4gen"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/telemetry"
	"splidt/internal/telemetry/flight"
	"splidt/internal/trace"
)

// Dataset identifies one of the seven builtin synthetic datasets (D1–D7,
// mirroring the paper's Table 2).
type Dataset = trace.DatasetID

// The builtin datasets.
const (
	D1 = trace.D1 // 19-class IoMT-style intrusion detection
	D2 = trace.D2 // 4-class IoT traffic
	D3 = trace.D3 // 13-class VPN detection
	D4 = trace.D4 // 11-class campus application mix
	D5 = trace.D5 // 32-class IoT security threats
	D6 = trace.D6 // 10-class IDS 2017-style attacks
	D7 = trace.D7 // 10-class IDS 2018-style attacks
)

// Datasets lists all builtin datasets.
func Datasets() []Dataset { return trace.AllDatasets() }

// NumClasses returns a dataset's label arity.
func NumClasses(d Dataset) int { return trace.NumClasses(d) }

// LabeledFlow is one generated flow with ground truth.
type LabeledFlow = trace.LabeledFlow

// Sample is one flow rendered as per-window feature vectors plus its label.
type Sample = trace.Sample

// Generate synthesises n labelled flows from a dataset's generative model
// (deterministic in seed).
func Generate(d Dataset, n int, seed int64) []LabeledFlow { return trace.Generate(d, n, seed) }

// GenConfig tunes optional workload deviations for GenerateWith; its zero
// value reproduces Generate exactly. GenConfig.LongIATFraction rewrites that
// fraction of flows into heavy-tailed keepalive patterns (0.6–2s gaps) —
// flows a global idle timeout tuned for chatty traffic would evict mid-gap,
// the workload that motivates per-class adaptive lifetimes.
type GenConfig = trace.GenConfig

// GenerateWith is Generate plus GenConfig deviations, applied as a
// deterministic post-pass over the base flow sequence.
func GenerateWith(d Dataset, n int, seed int64, cfg GenConfig) []LabeledFlow {
	return trace.GenerateWith(d, n, seed, cfg)
}

// BuildSamples windows labelled flows into training samples for the given
// partition count.
func BuildSamples(flows []LabeledFlow, parts int) []Sample { return trace.BuildSamples(flows, parts) }

// Split divides samples into train/test by fraction.
func Split(samples []Sample, trainFrac float64) (train, test []Sample) {
	return trace.Split(samples, trainFrac)
}

// GenerateColliding synthesises n labelled flows whose 5-tuples are
// engineered to contend for the first `groups` indices of a direct-mapped
// flow table of tableSize slots — the adversarial workload for the
// high-collision regime (flow bodies are exactly Generate's; only the keys
// are resampled). See trace.Colliding for the sharding divisibility rule.
func GenerateColliding(d Dataset, n int, seed int64, tableSize, groups int) []LabeledFlow {
	return trace.Colliding(d, n, seed, tableSize, groups)
}

// Workload models a datacenter environment's flow-size and lifetime
// distributions.
type Workload = trace.Workload

// The paper's two environments.
var (
	Webserver = trace.Webserver
	Hadoop    = trace.Hadoop
)

// Config describes a partitioned decision tree architecture.
type Config = core.Config

// Model is a trained partitioned decision tree.
type Model = core.Model

// Train runs SpliDT's recursive partitioned training (Algorithm 1).
func Train(samples []Sample, cfg Config) (*Model, error) { return core.Train(samples, cfg) }

// Compiled is a model lowered to data-plane match tables.
type Compiled = rangemark.Compiled

// Compile generates the TCAM artifacts of a trained model using the Range
// Marking algorithm.
func Compile(m *Model) (*Compiled, error) { return rangemark.Compile(m) }

// Profile describes a hardware target's resource budgets.
type Profile = resources.Profile

// Builtin hardware profiles.
var (
	Tofino1  = resources.Tofino1
	Tofino2  = resources.Tofino2
	X2       = resources.X2
	Pensando = resources.Pensando
)

// Pipeline is a simulated RMT switch pipeline with a deployed model.
type Pipeline = dataplane.Pipeline

// TableScheme selects the flow-state store a deployment uses
// (DeployConfig.Table): TableDirect is the paper's direct-mapped register
// array (colliding flows share state), TableCuckoo is the d-way
// set-associative store with cuckoo displacement and a bounded stash
// (full-key verification, exact at high load factors), and TableOracle is
// the unbounded exact map the equivalence tests use as ground truth.
type TableScheme = dataplane.TableScheme

// The flow-table schemes.
const (
	TableDirect = dataplane.TableDirect
	TableCuckoo = dataplane.TableCuckoo
	TableOracle = dataplane.TableOracle
)

// ParseTableScheme validates a scheme name ("" selects TableDirect).
func ParseTableScheme(s string) (TableScheme, error) { return dataplane.ParseTableScheme(s) }

// Cuckoo-scheme geometry defaults, applied when DeployConfig leaves
// Ways/Stash zero (a negative Stash disables the stash entirely).
const (
	DefaultTableWays  = flowtable.DefaultWays
	DefaultTableStash = flowtable.DefaultStash
)

// TableStashLines resolves a DeployConfig.Stash value to the stash line
// count a cuckoo deployment actually builds (0 selects the default,
// negative disables the stash).
func TableStashLines(configured int) int { return flowtable.StashLines(configured) }

// Digest is a classification record emitted by the pipeline.
type Digest = dataplane.Digest

// DeployConfig assembles a deployment for Deploy.
type DeployConfig = dataplane.Config

// Deploy validates a deployment against its hardware profile and returns a
// running pipeline.
func Deploy(cfg DeployConfig) (*Pipeline, error) { return dataplane.New(cfg) }

// Confusion is a confusion matrix with accuracy and macro-F1.
type Confusion = metrics.Confusion

// NewConfusion allocates an n-class confusion matrix.
func NewConfusion(classes int) *Confusion { return metrics.NewConfusion(classes) }

// MacroF1 scores predictions against ground truth.
func MacroF1(actual, predicted []int, classes int) float64 {
	return metrics.MacroF1Of(actual, predicted, classes)
}

// SearchPoint is one configuration in the design space.
type SearchPoint = bo.Point

// SearchSpace bounds the design search.
type SearchSpace = bo.Space

// DefaultSearchSpace mirrors the paper's ranges (depth ≤ 30, k ≤ 7,
// ≤ 7 partitions).
func DefaultSearchSpace() SearchSpace { return bo.DefaultSpace() }

// SearchResult is a completed design search with its Pareto frontier.
type SearchResult = bo.Result

// Env bundles a dataset with search budgets for DesignSearch and the
// experiment drivers.
type Env = experiments.Env

// NewEnv builds an experiment environment (nFlows <= 0 selects a
// class-proportional default).
func NewEnv(d Dataset, nFlows int) *Env { return experiments.NewEnv(d, nFlows) }

// DesignSearch explores configurations of a dataset with Bayesian
// optimisation and returns the search result; use BestAtFlows on the result
// via the experiments drivers, or read the Pareto field directly.
func DesignSearch(env *Env, space SearchSpace) SearchResult {
	res, _ := env.Search(space)
	return res
}

// BaselineOptions configures the NetBeacon/Leo design searches.
type BaselineOptions = baselines.Options

// BaselineResult is one trained baseline deployment.
type BaselineResult = baselines.Result

// TrainNetBeacon trains the NetBeacon baseline at a flow target.
func TrainNetBeacon(train, test []Sample, opts BaselineOptions) (BaselineResult, error) {
	return baselines.TrainNetBeacon(train, test, opts)
}

// TrainLeo trains the Leo baseline at a flow target.
func TrainLeo(train, test []Sample, opts BaselineOptions) (BaselineResult, error) {
	return baselines.TrainLeo(train, test, opts)
}

// WindowBounds selects non-uniform window boundaries (adaptive window
// sizing): cumulative flow fractions ending at 1.
type WindowBounds = pkt.Bounds

// UniformWindows returns the uniform bounds for n windows.
func UniformWindows(n int) WindowBounds { return pkt.Uniform(n) }

// BuildSamplesBounds windows labelled flows with non-uniform boundaries.
func BuildSamplesBounds(flows []LabeledFlow, bounds WindowBounds) []Sample {
	return trace.BuildSamplesBounds(flows, bounds)
}

// Controller is the control-plane companion of a deployment: it ingests
// digests, tracks flow classifications, and applies policy.
type Controller = controller.Controller

// ControllerPolicy maps digests to actions.
type ControllerPolicy = controller.Policy

// BlockClasses builds a policy that blocks the listed classes.
func BlockClasses(classes ...int) ControllerPolicy { return controller.BlockClasses(classes...) }

// NewController builds a controller (nil policy allows everything).
func NewController(classes int, policy ControllerPolicy) *Controller {
	return controller.New(classes, policy)
}

// Engine is the sharded multi-worker execution layer: N pipeline replicas
// dispatched by flow hash, so every flow's register state and digest stay
// on one shard.
type Engine = engine.Engine

// EngineConfig sizes an engine: the replicated deployment, shard count,
// burst size, and queue depth.
type EngineConfig = engine.Config

// EngineResult is one engine run's merged output: an ordered digest
// stream, summed stats, the per-shard split, and throughput rates.
type EngineResult = engine.Result

// PacketSource yields packets in arrival order (TrafficStream implements
// it; engine.SliceSource adapts in-memory sequences).
type PacketSource = engine.Source

// ShiftSource offsets a PacketSource's timestamps — replay a trace as a
// later wave so packet time (and flow-table ageing with it) keeps
// advancing.
type ShiftSource = engine.ShiftSource

// NewEngine validates the deployment and builds one pipeline replica per
// shard.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// EngineSession is a long-lived streaming run of an Engine (Engine.Start):
// Feed in, Digests/Poll out, Snapshot for live stats, Block for mid-run
// drop verdicts, Close for a graceful drain into a deterministic
// EngineResult. Engine.Run is implemented on top of it.
type EngineSession = engine.Session

// EngineSnapshot is a live view of a running session's merged stats,
// including dispatch-stage drops, backpressure counts, and flow-table
// ageing evictions (Stats.Evictions).
type EngineSnapshot = engine.Snapshot

// SessionOption configures an EngineSession at Engine.Start.
type SessionOption = engine.SessionOption

// WithBoundedDigests makes a session drop digests once delivered through
// Digests()/Poll, bounding a long-lived session's memory by its
// undelivered backlog; Close's Result then carries only that tail.
func WithBoundedDigests() SessionOption { return engine.WithBoundedDigests() }

// EngineFeeder is one producer's private handle into a session's dispatch
// stage (Session.NewFeeder): M feeders over a flow-disjoint workload
// partition (PartitionPackets) dispatch into the shard workers concurrently
// with no shared lock on the hot path. Session.Feed wraps a default one.
type EngineFeeder = engine.Feeder

// PartitionPackets splits a packet sequence into m flow-disjoint,
// order-preserving subsequences by flow hash — one per concurrent feeder.
// Keeping each flow on one feeder is what preserves per-flow packet order,
// and with it the engine's digest-multiset equivalence.
func PartitionPackets(pkts []Packet, m int) [][]Packet { return trace.Partition(pkts, m) }

// Streaming-session errors.
var (
	// ErrBackpressure reports a full shard queue on Feed: retry with the
	// unconsumed remainder or shed load. The producer side never blocks.
	ErrBackpressure = engine.ErrBackpressure
	// ErrSessionClosed reports a Feed after Close (or context cancel).
	ErrSessionClosed = engine.ErrSessionClosed
	// ErrSessionActive reports a second Start on a busy engine.
	ErrSessionActive = engine.ErrSessionActive
	// ErrFeederClosed reports a Feed on a closed EngineFeeder.
	ErrFeederClosed = engine.ErrFeederClosed
	// ErrShutdownTimeout reports a Close (or context abort) that hit the
	// shutdown deadline with a shard worker stuck mid-burst; the engine is
	// left poisoned rather than handed back with an unaccounted goroutine.
	ErrShutdownTimeout = engine.ErrShutdownTimeout
	// ErrRedeployTimeout reports a Session.Redeploy whose epoch was not
	// adopted by every healthy shard within the shutdown deadline.
	ErrRedeployTimeout = engine.ErrRedeployTimeout
)

// EngineHealth is a point-in-time fault report over a session
// (EngineSession.Health): per-shard states, quarantine drop counts, live
// deploy epochs, and the first recorded fault cause.
type EngineHealth = engine.Health

// ShardHealth is one shard's slice of an EngineHealth report.
type ShardHealth = engine.ShardHealth

// ShardState classifies a shard worker's condition: running, degraded
// (watchdog saw queued input make no progress for an interval), or
// quarantined (its worker panicked; the shard drains to a drop counter).
type ShardState = engine.HealthState

// The shard states.
const (
	ShardRunning     = engine.ShardRunning
	ShardDegraded    = engine.ShardDegraded
	ShardQuarantined = engine.ShardQuarantined
)

// ShardPanicError is the typed cause recorded when a shard worker
// panics: the shard, the recovered value, and the worker's stack.
// EngineSession.Err returns it and later Feed errors wrap it.
type ShardPanicError = engine.ShardPanicError

// FlowKey is a 5-tuple flow identity (Session.Block takes one; Digest
// carries one).
type FlowKey = flow.Key

// Packet is a parsed packet as the pipeline's PHV sees it — the unit
// Session.Feed consumes.
type Packet = pkt.Packet

// DigestSession is the session surface Controller.Serve consumes;
// *EngineSession satisfies it.
type DigestSession = controller.DigestSession

// TrafficStream lazily generates a dataset workload in global arrival
// order, deterministic in (dataset, flows, seed, spacing).
type TrafficStream = trace.Stream

// NewStream builds a lazy packet source over n generated flows, flow i
// starting at i×spacing.
func NewStream(d Dataset, n int, seed int64, spacing time.Duration) *TrafficStream {
	return trace.NewStream(d, n, seed, spacing)
}

// Throughput reports an engine run's rates: packets/sec, digests/sec, and
// recirculation overhead per packet.
type Throughput = metrics.Throughput

// PipelineStats aggregates data-plane counters (per shard or merged).
type PipelineStats = dataplane.Stats

// P4Options configures P4 source generation.
type P4Options = p4gen.Options

// P4Generator emits P4-16 source and bfrt-style rule files for a compiled
// model (the artifacts a physical deployment would install).
type P4Generator = p4gen.Generator

// NewP4Generator builds a generator for a trained and compiled model.
func NewP4Generator(m *Model, c *Compiled, opts P4Options) (*P4Generator, error) {
	return p4gen.New(m, c, opts)
}

// TelemetryServer is the live management plane: a stdlib HTTP server
// exposing /metrics (Prometheus text), /healthz (session health JSON),
// /flightrecorder (per-shard postmortem rings), /series (sampler
// time series), and /debug/pprof — all reading published atomics off
// the hot path.
type TelemetryServer = telemetry.Server

// TelemetryConfig sizes a TelemetryServer: the engine it describes, the
// optional live session and controller, the sampler interval and series
// depth.
type TelemetryConfig = telemetry.Config

// TelemetrySample is one sampler observation: rates, occupancy, backlog,
// and feed lag over one sampling interval.
type TelemetrySample = telemetry.Sample

// ServeTelemetry binds the management server on addr ("host:port";
// ":0" picks a free port, see TelemetryServer.Addr) and starts its
// sampler. Close releases both.
func ServeTelemetry(addr string, cfg TelemetryConfig) (*TelemetryServer, error) {
	return telemetry.Serve(addr, cfg)
}

// FlightEvent is one flight-recorder entry: a monotone sequence number,
// an event kind, the shard's packet-time stamp, and two kind-specific
// operands. ShardPanicError.Postmortem carries the final ring.
type FlightEvent = flight.Event

// FlightKind enumerates flight-recorder event kinds.
type FlightKind = flight.Kind
