// Package loadgen is the open-loop load harness: it drives an engine with a
// continuously churning flow population (or a recorded wire-format stream)
// through parallel per-producer feeders at a target offered rate, walks a
// schedule of phases — steady state, heavy-tailed mixes, collision storms,
// block storms, hitless mid-run redeploys — and reports per-phase
// digest-latency percentiles
// (p50/p99/p999 off the engine's merged histograms), flow-table occupancy
// and stash gauges, eviction/reject counters, and achieved packet rates.
//
// Open-loop means the offered schedule never adapts to the system: each
// feeder paces against an absolute schedule (packet k is due at start +
// k/rate) and never sheds — when the engine backpressures, the feeder
// retries until accepted and the slip is reported as lag, so overload shows
// up as growing lag and latency rather than silently reduced load (the
// coordinated-omission trap a closed loop falls into).
package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/flow"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
)

// Phase is one stretch of a harness run: a packet budget driven under one
// knob setting. Zero-valued knobs give plain steady-state load.
type Phase struct {
	// Name labels the phase in the report.
	Name string
	// Packets is the phase's offered packet budget, split across feeders.
	Packets int64
	// RateFactor scales the harness target rate for this phase (0 → 1):
	// >1 models a surge, <1 a lull.
	RateFactor float64
	// CollisionFrac directs this fraction of flow rebirths to draw
	// colliding keys from the generator's precomputed pool — a collision
	// storm (requires ChurnConfig.CollisionTable; ignored in wire mode).
	CollisionFrac float64
	// BlockEvery installs a block verdict on a random live flow every this
	// many offered packets per feeder, modelling a controller blocking at
	// rate during the phase — a block storm keeping the dispatch drop
	// filter adversarially hot. Outstanding verdicts are bounded by
	// Config.BlockRing (oldest unblocked first) and cleared at phase end.
	// 0 disables. Ignored in wire mode.
	BlockEvery int64
	// Redeploy fires a hitless tree swap concurrently with this phase's
	// load: Config.Redeploy supplies a freshly compiled tree and the
	// harness calls Session.Redeploy while the feeders keep offering, so
	// the epoch handoff happens under pressure rather than at an idle
	// boundary. The adopted epoch lands in the phase's report.
	Redeploy bool
}

// Config sizes a harness run.
type Config struct {
	// Engine to drive. Required; the harness runs one session on it.
	Engine *engine.Engine
	// Feeders is the number of parallel producer goroutines, each with a
	// private engine.Feeder and (in churn mode) its own generator over a
	// disjoint slice of the population. Default 1.
	Feeders int
	// Rate is the total offered packet rate across feeders, packets/sec.
	// 0 disables pacing: feeders offer as fast as the engine accepts.
	Rate float64
	// Churn configures the generated population (Flows is the total across
	// feeders). Ignored when Source is set.
	Churn ChurnConfig
	// Source, when non-nil, replaces the churn generators with a single
	// externally supplied packet source — a WireSource over a recorded
	// stream, typically. Wire mode is single-feeder and ignores the
	// generator knobs (CollisionFrac, BlockEvery); a phase ends early if
	// the source is exhausted.
	Source engine.Source
	// Phases is the schedule, run in order. Required.
	Phases []Phase
	// BlockRing bounds outstanding block verdicts per feeder during block
	// storms. Default 1024.
	BlockRing int
	// Redeploy supplies the tree for a Phase.Redeploy swap — typically a
	// retrain on fresh traffic followed by a compile. Required when any
	// phase sets Redeploy; called once per such phase, from the harness's
	// redeploy goroutine, while the feeders are live.
	Redeploy func() (*core.Model, *rangemark.Compiled, error)
	// OnSession, when non-nil, is called with the harness's session right
	// after it starts, before any phase runs — the hook the telemetry
	// management plane uses to bind /metrics and /healthz to the live run
	// (the session does not exist until Run is underway).
	OnSession func(*engine.Session)
}

// PhaseReport is one phase's measurements. Counters are deltas over the
// phase; gauges are sampled at phase end. Engine snapshots trail live state
// by at most one in-flight burst per shard, so back-to-back phases may
// shift a handful of boundary packets between adjacent reports.
type PhaseReport struct {
	Name    string
	Packets int64 // offered (fed) this phase, blocked-and-dropped included
	Elapsed time.Duration
	// PktsPerSec is the achieved offered rate; Offered the target (0 if
	// unpaced).
	PktsPerSec float64
	Offered    float64
	// Lag is the worst feeder's schedule slip at phase end — how far
	// behind the absolute open-loop schedule it finished (0 unpaced).
	Lag time.Duration
	// Digest latency distribution over the phase (feeder handoff →
	// digest emission), from the engine's merged histograms.
	LatencyCount        int64
	P50, P99, P999, Max time.Duration

	Digests      int64
	Dropped      int64 // packets of blocked flows discarded
	Backpressure int64 // Feed calls refused (each retried; open loop)
	Evictions    int64 // flow-table slots reclaimed (expiry + Block/Evict)
	Rejects      int64 // packets the flow table refused state for
	Births       int64 // flow rebirths across generators (churn mode)

	// WheelExpiries counts flows reclaimed by timer-wheel expiry this
	// phase; WheelCascades counts wheel nodes re-filed to a finer level
	// (summed over levels). Both 0 with ageing off.
	WheelExpiries int64
	WheelCascades int64

	ActiveFlows  int     // live flow-table entries at phase end
	Occupancy    float64 // ActiveFlows / table capacity
	StashedFlows int     // cuckoo stash residents at phase end
	BlockedFlows int     // drop-filter size at phase end

	Redeploys int    // hitless tree swaps fired during the phase (0 or 1)
	Epoch     uint64 // deploy epoch live at phase end (0 = construction tree)
}

// Report is a whole run's output.
type Report struct {
	Flows    int // concurrent flow population (0 in wire mode)
	Feeders  int
	TableCap int
	Rate     float64 // configured total target rate (0 unpaced)
	Phases   []PhaseReport
	// Total aggregates the phases: counter sums, overall rate, and the
	// run-wide latency distribution (not a sum of phase percentiles).
	Total PhaseReport
}

// feeder is one producer goroutine's state.
type feeder struct {
	f   *engine.Feeder
	gen *ChurnGen     // nil in wire mode
	src engine.Source // gen, or the shared wire source
	buf []pkt.Packet

	blocked []flow.Key // bounded ring of outstanding block verdicts
	blkPos  int
	blkLen  int

	lag       time.Duration
	exhausted bool // wire source ran dry mid-phase
}

// feedBurst is how many packets a feeder pulls from its source per pacing
// check.
const feedBurst = 256

// Run executes the schedule and returns the report. The context aborts the
// run: feeders stop at the next burst and Run returns the context's error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("loadgen: nil engine")
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("loadgen: empty phase schedule")
	}
	for i, ph := range cfg.Phases {
		if ph.Packets <= 0 {
			return nil, fmt.Errorf("loadgen: phase %d (%q) has no packet budget", i, ph.Name)
		}
		if ph.Redeploy && cfg.Redeploy == nil {
			return nil, fmt.Errorf("loadgen: phase %d (%q) requests a redeploy but Config.Redeploy is nil", i, ph.Name)
		}
	}
	if cfg.Feeders <= 0 {
		cfg.Feeders = 1
	}
	if cfg.Source != nil {
		cfg.Feeders = 1
	}
	if cfg.BlockRing <= 0 {
		cfg.BlockRing = 1024
	}

	feeders := make([]*feeder, cfg.Feeders)
	if cfg.Source == nil {
		for i, c := range PerFeeder(cfg.Churn, cfg.Feeders) {
			g, err := NewChurn(c)
			if err != nil {
				return nil, err
			}
			feeders[i] = &feeder{gen: g, src: g}
		}
	} else {
		feeders[0] = &feeder{src: cfg.Source}
	}

	s, err := cfg.Engine.Start(ctx, engine.WithDigestLatency(), engine.WithBoundedDigests())
	if err != nil {
		return nil, err
	}
	for _, fd := range feeders {
		if fd.f, err = s.NewFeeder(); err != nil {
			s.Close()
			return nil, err
		}
		fd.buf = make([]pkt.Packet, feedBurst)
		fd.blocked = make([]flow.Key, cfg.BlockRing)
	}
	// Drain digests as they arrive so a long run's memory stays bounded
	// (the session is in drop-after-delivery mode).
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range s.Digests() {
		}
	}()
	if cfg.OnSession != nil {
		cfg.OnSession(s)
	}

	rep := &Report{
		Feeders:  cfg.Feeders,
		TableCap: cfg.Engine.TableCap(),
		Rate:     cfg.Rate,
	}
	if cfg.Source == nil {
		rep.Flows = cfg.Churn.Flows
	}

	runStart := time.Now()
	var runErr error
	var liveEpoch uint64 // deploy epoch currently live (0 = construction tree)
	prevSnap := s.Snapshot()
	prevLat := s.DigestLatency()
	prevBirths := int64(0)
	for _, ph := range cfg.Phases {
		rate := cfg.Rate
		if ph.RateFactor > 0 {
			rate *= ph.RateFactor
		}
		for _, fd := range feeders {
			if fd.gen != nil {
				fd.gen.SetCollisionFrac(ph.CollisionFrac)
			}
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, len(feeders))
		per := ph.Packets / int64(len(feeders))
		for i, fd := range feeders {
			quota := per
			if i == 0 {
				quota += ph.Packets - per*int64(len(feeders))
			}
			wg.Add(1)
			go func(i int, fd *feeder) {
				defer wg.Done()
				errs[i] = fd.runPhase(ctx, s, ph, quota, rate/float64(len(feeders)))
			}(i, fd)
		}
		// A redeploy phase swaps the tree while the feeders above are live —
		// the whole point is that the epoch handoff happens under load. The
		// join after wg.Wait orders the epoch read for the report.
		var (
			redeployed   chan struct{}
			redeployErr  error
			phaseEpoch   uint64
			phaseSwapped int
		)
		if ph.Redeploy {
			redeployed = make(chan struct{})
			go func() {
				defer close(redeployed)
				m, c, err := cfg.Redeploy()
				if err == nil {
					phaseEpoch, err = s.Redeploy(m, c)
					phaseSwapped = 1
				}
				redeployErr = err
			}()
		}
		wg.Wait()
		if redeployed != nil {
			<-redeployed
			if redeployErr != nil && runErr == nil {
				runErr = fmt.Errorf("loadgen: phase %q redeploy: %w", ph.Name, redeployErr)
			}
			if phaseSwapped > 0 {
				liveEpoch = phaseEpoch
			}
		}
		for _, e := range errs {
			if e != nil && runErr == nil {
				runErr = e
			}
		}
		elapsed := time.Since(t0)

		snap := s.Snapshot()
		lat := s.DigestLatency()
		phaseLat := lat.Clone()
		phaseLat.Sub(prevLat)
		var births int64
		for _, fd := range feeders {
			if fd.gen != nil {
				births += fd.gen.Births()
			}
		}
		pr := PhaseReport{
			Name:          ph.Name,
			Packets:       snap.Fed - prevSnap.Fed,
			Elapsed:       elapsed,
			Offered:       rate,
			LatencyCount:  phaseLat.Count(),
			P50:           phaseLat.QuantileDur(0.50),
			P99:           phaseLat.QuantileDur(0.99),
			P999:          phaseLat.QuantileDur(0.999),
			Max:           time.Duration(phaseLat.Max()),
			Digests:       int64(snap.Stats.Digests - prevSnap.Stats.Digests),
			Dropped:       snap.Dropped - prevSnap.Dropped,
			Backpressure:  snap.Backpressure - prevSnap.Backpressure,
			Evictions:     int64(snap.Stats.Evictions - prevSnap.Stats.Evictions),
			Rejects:       int64(snap.Stats.Collisions - prevSnap.Stats.Collisions),
			Births:        births - prevBirths,
			WheelExpiries: int64(snap.Stats.WheelExpiries - prevSnap.Stats.WheelExpiries),
			WheelCascades: sumCascades(snap.Stats) - sumCascades(prevSnap.Stats),
			ActiveFlows:   snap.ActiveFlows,
			StashedFlows:  snap.StashedFlows,
			BlockedFlows:  snap.BlockedFlows,
			Redeploys:     phaseSwapped,
			Epoch:         liveEpoch,
		}
		if elapsed > 0 {
			pr.PktsPerSec = float64(pr.Packets) / elapsed.Seconds()
		}
		if rep.TableCap > 0 {
			pr.Occupancy = float64(snap.ActiveFlows) / float64(rep.TableCap)
		}
		for _, fd := range feeders {
			if fd.lag > pr.Lag {
				pr.Lag = fd.lag
			}
			// Clear outstanding block verdicts so phases stay independent.
			fd.drainBlocks(s)
		}
		rep.Phases = append(rep.Phases, pr)
		prevSnap, prevLat, prevBirths = snap, lat, births
		if runErr != nil {
			break
		}
	}

	res, closeErr := s.Close()
	<-drained
	if runErr == nil {
		runErr = closeErr
	}
	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}

	total := PhaseReport{Name: "total", Elapsed: time.Since(runStart), Epoch: liveEpoch}
	for _, pr := range rep.Phases {
		total.Packets += pr.Packets
		total.Dropped += pr.Dropped
		total.Backpressure += pr.Backpressure
		total.Evictions += pr.Evictions
		total.Rejects += pr.Rejects
		total.Births += pr.Births
		total.WheelExpiries += pr.WheelExpiries
		total.WheelCascades += pr.WheelCascades
		total.Redeploys += pr.Redeploys
		if pr.Lag > total.Lag {
			total.Lag = pr.Lag
		}
	}
	total.Digests = int64(res.Stats.Digests)
	if total.Elapsed > 0 {
		total.PktsPerSec = float64(total.Packets) / total.Elapsed.Seconds()
	}
	total.Offered = cfg.Rate
	if final := s.DigestLatency(); final != nil {
		total.LatencyCount = final.Count()
		total.P50 = final.QuantileDur(0.50)
		total.P99 = final.QuantileDur(0.99)
		total.P999 = final.QuantileDur(0.999)
		total.Max = time.Duration(final.Max())
	}
	finalSnap := s.Snapshot()
	total.ActiveFlows = finalSnap.ActiveFlows
	total.StashedFlows = finalSnap.StashedFlows
	total.BlockedFlows = finalSnap.BlockedFlows
	if rep.TableCap > 0 {
		total.Occupancy = float64(finalSnap.ActiveFlows) / float64(rep.TableCap)
	}
	rep.Total = total
	return rep, runErr
}

// runPhase drives one feeder through one phase: pull a burst from the
// source, wait for its open-loop due time, hand it to the engine (retrying
// through backpressure — never shedding), fire block-storm events on
// schedule.
func (fd *feeder) runPhase(ctx context.Context, s *engine.Session, ph Phase,
	quota int64, rate float64) error {
	fd.lag = 0
	start := time.Now()
	var sent int64
	nextBlock := ph.BlockEvery
	for sent < quota {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := int64(len(fd.buf))
		if quota-sent < n {
			n = quota - sent
		}
		b := fd.buf[:n]
		filled := 0
		for i := range b {
			p, ok := fd.src.Next()
			if !ok {
				fd.exhausted = true
				break
			}
			b[i] = p
			filled++
		}
		b = b[:filled]
		if rate > 0 {
			due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		if len(b) > 0 {
			if err := fd.f.FeedAll(b); err != nil {
				return err
			}
			sent += int64(len(b))
		}
		if fd.exhausted {
			break
		}
		if ph.BlockEvery > 0 && fd.gen != nil && sent >= nextBlock {
			fd.blockOne(s)
			nextBlock += ph.BlockEvery
		}
	}
	if rate > 0 && sent > 0 {
		sched := time.Duration(float64(sent) / rate * float64(time.Second))
		if lag := time.Since(start) - sched; lag > 0 {
			fd.lag = lag
		}
	}
	return nil
}

// blockOne installs a block verdict on a random live flow, unblocking the
// oldest outstanding verdict first when the ring is full.
func (fd *feeder) blockOne(s *engine.Session) {
	k := fd.gen.SampleActive()
	if fd.blkLen == len(fd.blocked) {
		s.Unblock(fd.blocked[fd.blkPos])
		fd.blkPos = (fd.blkPos + 1) % len(fd.blocked)
		fd.blkLen--
	}
	s.Block(k)
	fd.blocked[(fd.blkPos+fd.blkLen)%len(fd.blocked)] = k
	fd.blkLen++
}

// drainBlocks lifts every outstanding verdict this feeder installed.
func (fd *feeder) drainBlocks(s *engine.Session) {
	for i := 0; i < fd.blkLen; i++ {
		s.Unblock(fd.blocked[(fd.blkPos+i)%len(fd.blocked)])
	}
	fd.blkPos, fd.blkLen = 0, 0
}

// String renders a phase report as one aligned summary line.
func (pr PhaseReport) String() string {
	s := fmt.Sprintf(
		"%-12s pkts=%d %.0f pkts/s (target %.0f, lag %v) digests=%d "+
			"p50=%v p99=%v p999=%v max=%v occ=%.1f%% (%d active, %d stashed) "+
			"dropped=%d bp=%d evic=%d rej=%d births=%d blocked=%d",
		pr.Name, pr.Packets, pr.PktsPerSec, pr.Offered, pr.Lag, pr.Digests,
		pr.P50, pr.P99, pr.P999, pr.Max, 100*pr.Occupancy, pr.ActiveFlows,
		pr.StashedFlows, pr.Dropped, pr.Backpressure, pr.Evictions,
		pr.Rejects, pr.Births, pr.BlockedFlows)
	if pr.WheelExpiries > 0 || pr.WheelCascades > 0 {
		s += fmt.Sprintf(" wheel=%d(casc %d)", pr.WheelExpiries, pr.WheelCascades)
	}
	if pr.Redeploys > 0 {
		s += fmt.Sprintf(" redeploy=%d(epoch %d)", pr.Redeploys, pr.Epoch)
	}
	return s
}

// sumCascades collapses the per-level cascade counters into one scalar
// for phase reporting; /metrics keeps the per-level breakdown.
func sumCascades(st dataplane.Stats) int64 {
	var n int64
	for _, c := range st.WheelCascades {
		n += int64(c)
	}
	return n
}

var _ engine.Source = (*ChurnGen)(nil)
var _ engine.Source = (*WireSource)(nil)
