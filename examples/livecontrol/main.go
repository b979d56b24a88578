// Live control: the paper's detect→block loop, end to end, on a streaming
// engine session. A sharded engine classifies IDS-style traffic (D6) while
// it is still flowing; a controller consumes the live digest stream and
// pushes ActionBlock verdicts for attack classes straight back into the
// dispatch stage's drop filter, so a blocked flow stops consuming pipeline
// work mid-run — no stop-the-world, no post-hoc replay.
//
// The example streams two waves through one session. Wave 1 is first
// contact: flows are classified in flight, attack flows get blocked (their
// remaining packets are already dropped if they early-exited). Wave 2 is
// the repeat offender: every previously blocked flow is discarded at the
// dispatcher for the cost of one hash lookup, visible live in Snapshot().
//
// Blocking an early-exited flow used to leak its register slot: the
// dispatcher drops the flow's tail, so the parked slot never saw the
// flow-end packet that frees it, and over waves the flow table filled with
// dead entries. Flow-table ageing closes the leak: Block evicts the slot
// immediately, and idle expiry (IdleTimeout in the deploy config: a timer
// wheel driven by packet time on each shard worker) reclaims anything that
// goes quiet — watch ActiveFlows stay bounded wave over wave and
// Stats.Evictions count the reclaims.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"splidt"
)

// benignClass is the label the D6 generator assigns to its benign traffic
// class; the rest model attack categories (DoS, DDoS, brute force, ...).
const benignClass = 0

func main() {
	log.SetFlags(0)

	classes := splidt.NumClasses(splidt.D6)
	flows := splidt.Generate(splidt.D6, 900, 42)
	samples := splidt.BuildSamples(flows, 4)
	train, _ := splidt.Split(samples, 0.7)

	model, err := splidt.Train(train, splidt.Config{
		Partitions:         []int{3, 2, 2, 2},
		FeaturesPerSubtree: 4,
		NumClasses:         classes,
	})
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := splidt.Compile(model)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := splidt.NewEngine(splidt.EngineConfig{
		Deploy: splidt.DeployConfig{
			Profile: splidt.Tofino1(), Model: model, Compiled: compiled,
			FlowSlots: 1 << 16, Workload: splidt.Webserver,
			// Flow-table ageing: slots idle for 5s of packet time are
			// reclaimed. The timeout must exceed the workload's worst
			// intra-flow packet gap (~2.5s here) or expiry evicts live
			// flows mid-conversation and resets their feature state.
			IdleTimeout: 5 * time.Second,
		},
		Shards: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Policy: block every class except benign. The controller serves the
	// session's live digest stream on its own goroutine and installs a drop
	// verdict the moment an attack digest arrives.
	var attack []int
	for c := 1; c < classes; c++ {
		attack = append(attack, c)
	}
	ctrl := splidt.NewController(classes, splidt.BlockClasses(attack...))

	sess, err := eng.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan int, 1)
	go func() {
		blocked, serveErr := ctrl.Serve(sess)
		if serveErr != nil {
			log.Fatalf("digest stream died: %v", serveErr)
		}
		served <- blocked
	}()

	const nFlows = 600
	fmt.Println("wave 1: first contact — classify in flight, block on digest")
	wave1End := feedWave(sess, nFlows, 0)
	waitQuiesce(sess, ctrl)
	snap := sess.Snapshot()
	fmt.Printf("  processed %d packets, %d digests, %d flows blocked, %d packets of blocked flows dropped mid-run\n",
		snap.Stats.Packets, snap.Stats.Digests, snap.BlockedFlows, snap.Dropped)
	fmt.Printf("  flow table after wave 1: %d slots active, %d evicted (blocked early-exits reclaimed, not leaked), %d collision packets\n",
		snap.ActiveFlows, snap.Stats.Evictions, snap.Stats.Collisions)

	fmt.Println("wave 2: repeat offenders — blocked flows die at the dispatcher")
	before := snap
	feedWave(sess, nFlows, wave1End)
	res, err := sess.Close()
	if err != nil {
		log.Fatal(err)
	}
	blockedDigests := <-served
	after := sess.Snapshot()

	fmt.Printf("  dropped %d more packets at the dispatch stage (no burst slot, no pipeline work)\n",
		after.Dropped-before.Dropped)
	fmt.Printf("  wave-2 pipeline load: %d packets vs wave-1 %d\n",
		after.Stats.Packets-before.Stats.Packets, before.Stats.Packets)
	fmt.Printf("  flow table after wave 2: %d slots active, %d evicted — bounded, not ratcheting — %d collision packets\n",
		after.ActiveFlows, after.Stats.Evictions, after.Stats.Collisions)

	fmt.Println("totals")
	fmt.Printf("  digests %d, block verdicts %d, mean time-to-detection %v\n",
		ctrl.Digests(), blockedDigests, ctrl.MeanTTD())
	fmt.Printf("  dispatcher drops %d (Result) / %d (Snapshot)\n", res.Dropped, after.Dropped)
	fmt.Printf("  throughput %v\n", res.Throughput)
	if res.Dropped == 0 || after.BlockedFlows == 0 {
		log.Fatal("live control loop blocked nothing — expected attack flows to be dropped")
	}
	if res.Stats.Evictions == 0 {
		log.Fatal("flow-table ageing reclaimed nothing — blocked early-exited flows should have been evicted")
	}
	// Without eviction, every blocked early-exited flow would park a slot
	// forever; bounded means the surviving occupancy is nowhere near that.
	if after.ActiveFlows >= after.BlockedFlows {
		log.Fatalf("flow table not bounded: %d slots active with %d flows blocked", after.ActiveFlows, after.BlockedFlows)
	}
}

// feedWave streams one workload wave into the session, shifted to start at
// packet time `from` — wave 2 replays the same trace later in packet time,
// as real repeat offenders would, which also keeps the expiry wheels'
// packet-time clock advancing. FeedSource stages chunks and retries
// through backpressure for us; a load-shedding producer would call Feed
// directly and act on ErrBackpressure instead. Returns the wave's last
// packet timestamp (the next wave's natural start).
func feedWave(sess *splidt.EngineSession, nFlows int, from time.Duration) time.Duration {
	src := &splidt.ShiftSource{
		Src:    splidt.NewStream(splidt.D6, nFlows, 7, 50*time.Microsecond),
		Offset: from,
	}
	if err := sess.FeedSource(src); err != nil {
		log.Fatal(err)
	}
	return src.Max()
}

// waitQuiesce waits until the workers have drained the wave and the
// controller has acted on every digest, polling live snapshots — the kind
// of observation the batch API could only do after the fact.
func waitQuiesce(sess *splidt.EngineSession, ctrl *splidt.Controller) {
	for {
		a := sess.Snapshot()
		time.Sleep(5 * time.Millisecond)
		b := sess.Snapshot()
		if a.Stats == b.Stats && ctrl.Digests() >= b.Stats.Digests {
			return
		}
	}
}
