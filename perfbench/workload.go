package main

import (
	"fmt"
	"time"

	"splidt/internal/trace"
)

// spec is one named workload: the traffic shape, the deployment it runs
// against, how it is paced, and which output checks apply. README.md gives
// the reason each workload exists.
type spec struct {
	name string

	// Traffic: a churning population generated by loadgen.ChurnGen, split
	// across feeders flow-disjointly by loadgen.PerFeeder.
	workload  trace.Workload
	flows     int
	longFrac  float64
	timeScale float64

	// Deployment: a cuckoo flow table of slots cells in total, split over
	// shards; idleTimeout > 0 arms the default (stripe-sweep) expiry.
	slots       int
	idleTimeout time.Duration

	// Pacing. closed: each feeder offers its next burst as soon as the
	// previous one is accepted. Otherwise packet p is due at
	// warm-up start + (p.TS - preroll) / compression, where compression is
	// virtual seconds per wall second: rate / the population's total
	// virtual packet rate.
	closed      bool
	rate        float64
	compression float64
	// preroll is virtual time each generator runs through, off the clock
	// and unseen by the engine, before the first offered packet: a fresh
	// population's packet rate starts high and settles as long-lived flows
	// accumulate, and a fixed compression only gives the nominal rate once
	// it has settled.
	preroll time.Duration

	// control runs controller.Serve with the block-1-in-5 policy and lands
	// one Session.Redeploy of a second tree mid-window.
	control bool
	// oracle compares the engine's digest multiset with a single-threaded
	// pipeline over the oracle table replaying the same streams.
	oracle bool

	warmup     time.Duration
	ladderPkts int // captured prefix the ladder replays (both feeders)
}

// Constants every workload shares.
const (
	numFeeders = 2   // at most nproc on the 2-CPU reference host
	numShards  = 2   // one pipeline replica per CPU
	chunk      = 256 // packets per FeedAll call
	trainFlows = 400
	dataset    = trace.D3
	// featuresPerSubtree is k, the register slots per subtree.
	featuresPerSubtree = 4
)

var partitions = []int{3, 2, 2}

// Virtual packet rates (packets per virtual second, both feeders together)
// of the two paced populations once settled past their preroll, measured
// over seeds 1-3; the compressions below divide the nominal wall rate by
// them.
const (
	pacedDigestVirtRate = 10.1e6
	controlLoopVirtRate = 57.8e6
)

func workloads() []spec {
	return []spec{
		{
			name:       "saturate",
			workload:   trace.Webserver,
			flows:      200_000,
			longFrac:   0.05,
			timeScale:  1000,
			slots:      1 << 19,
			closed:     true,
			oracle:     true,
			warmup:     2 * time.Second,
			ladderPkts: 1_000_000,
		},
		{
			name:        "paced_digest",
			workload:    trace.Hadoop,
			flows:       16_000,
			timeScale:   1000,
			slots:       1 << 16,
			rate:        1_000_000,
			compression: 1_000_000 / pacedDigestVirtRate,
			preroll:     200 * time.Millisecond,
			oracle:      true,
			warmup:      2 * time.Second,
			ladderPkts:  1_000_000,
		},
		{
			name:      "control_loop",
			workload:  trace.Hadoop,
			flows:     100_000,
			longFrac:  0.3,
			timeScale: 1000,
			slots:     1 << 18,
			// Below the shortest compressed keepalive gap (600ms/1000), so
			// the sweep reclaims idle entries continuously.
			idleTimeout: 500 * time.Microsecond,
			rate:        500_000,
			compression: 500_000 / controlLoopVirtRate,
			preroll:     250 * time.Millisecond,
			control:     true,
			warmup:      2 * time.Second,
			ladderPkts:  1_000_000,
		},
	}
}

func lookupWorkload(name string) (spec, error) {
	var names []string
	for _, sp := range workloads() {
		if sp.name == name {
			return sp, nil
		}
		names = append(names, sp.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// params renders the workload's parameters for the provenance header.
func (sp spec) params() string {
	s := fmt.Sprintf("workload=%s traffic=%s flows=%d keepalive=%.2f time_scale=%g slots=%d idle_timeout=%v feeders=%d shards=%d chunk=%d",
		sp.name, sp.workload.Name, sp.flows, sp.longFrac, sp.timeScale, sp.slots, sp.idleTimeout, numFeeders, numShards, chunk)
	if sp.closed {
		s += " pacing=closed"
	} else {
		s += fmt.Sprintf(" pacing=open rate=%.0f compression=%.6g preroll=%v", sp.rate, sp.compression, sp.preroll)
	}
	return s + fmt.Sprintf(" control=%t oracle=%t warmup=%v", sp.control, sp.oracle, sp.warmup)
}
