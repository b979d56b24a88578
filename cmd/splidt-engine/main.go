// Command splidt-engine trains a partitioned tree, deploys it across a
// sharded multi-worker engine, streams a generated workload through it, and
// reports throughput: packets/sec, digests/sec, recirculation overhead, and
// the per-shard load split.
//
// Batch mode (default) drains the workload through Engine.Run; -feeders N
// instead splits it into N flow-disjoint partitions and dispatches them
// through N concurrent Feeder handles over the engine's MPSC shard rings —
// the parallel producer side. Live mode
// (-live) opens a streaming session instead: packets go in through Feed, a
// controller consumes the digest stream concurrently and pushes ActionBlock
// verdicts for the classes named by -block back into the dispatch stage, and
// periodic snapshots show flows being dropped while traffic is still
// flowing. -waves replays the workload through the same session, modelling
// repeat offenders hitting an already-populated blocklist. -idle-timeout
// arms flow-table ageing: per-shard timer wheels driven by packet time
// reclaim register slots of flows that went quiet (blocked early-exited
// flows included), keeping ActiveFlows bounded over multi-wave runs. Each
// flow idles out on its per-class adaptive lifetime, trained from each
// leaf's IAT statistics (-idle-timeout is the base lifetime;
// -lifetime-class pins specific classes by policy).
//
// -record <file> instead dumps the generated workload as a wire-format
// record stream (pkt record codec) and exits without running the engine;
// replay it through the load harness with splidt-loadgen -wire <file>.
//
// Usage:
//
//	splidt-engine -dataset 3 -flows 2000 -shards 8 -burst 32
//	splidt-engine -dataset 3 -flows 2000 -shards 4 -feeders 4
//	splidt-engine -dataset 3 -flows 2000 -live -block 0,1,2 -waves 2 -idle-timeout 20ms
//	splidt-engine -dataset 3 -flows 2000 -idle-timeout 100ms -lifetime-class 3=5s
//	splidt-engine -dataset 3 -flows 5000 -record ws.splt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"splidt"
	"splidt/internal/pkt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("splidt-engine: ")

	var (
		dataset    = flag.Int("dataset", 3, "dataset number (1-7)")
		nFlows     = flag.Int("flows", 2000, "streamed flows")
		trainFlows = flag.Int("train-flows", 400, "flows used to train the model")
		partitions = flag.String("partitions", "3,2,2", "comma-separated partition depths")
		k          = flag.Int("k", 4, "features per subtree")
		seed       = flag.Int64("seed", 1, "workload seed")
		shards     = flag.Int("shards", 0, "pipeline replicas / worker goroutines (0 = GOMAXPROCS)")
		feeders    = flag.Int("feeders", 1, "concurrent dispatch producers over a flow-disjoint workload partition (batch mode)")
		burst      = flag.Int("burst", 32, "packets per burst")
		queue      = flag.Int("queue", 8, "per-shard queue depth in bursts")
		slots      = flag.Int("slots", 1<<18, "total flow register slots (split across shards)")
		table      = flag.String("table", "direct", "flow-table scheme: direct (hash-indexed slots, collisions couple flows), cuckoo (d-way associative + stash, verified exact), or oracle (unbounded map, testing only)")
		ways       = flag.Int("ways", splidt.DefaultTableWays, "cuckoo bucket associativity (-table cuckoo)")
		stash      = flag.Int("stash", splidt.DefaultTableStash, "cuckoo overflow stash entries (-table cuckoo; 0 = library default, negative = no stash)")
		idleTO     = flag.Duration("idle-timeout", 0, "flow-table ageing: base idle lifetime in packet time, refined per class from leaf IAT statistics (0 = off)")
		ltClass    = flag.String("lifetime-class", "", "comma-separated class=duration lifetime overrides, e.g. 3=5s,7=250ms (pins those classes' leaf lifetimes instead of deriving them)")
		spacingUS  = flag.Int("spacing-us", 200, "flow start spacing (µs)")
		record     = flag.String("record", "", "write the generated workload as a wire-format record file and exit (replay with splidt-loadgen -wire)")
		live       = flag.Bool("live", false, "streaming session with a live controller loop")
		block      = flag.String("block", "", "comma-separated classes the controller blocks (live mode)")
		waves      = flag.Int("waves", 1, "times to replay the workload through one session (live mode)")
		reportMS   = flag.Int("report-ms", 200, "live snapshot interval (ms)")
		redeployAt = flag.Int64("redeploy-at", 0, "live mode: once N packets have been fed, retrain and hitlessly swap the tree mid-run (0 = off)")
		telemetry  = flag.String("telemetry", "", "serve /metrics, /healthz, /flightrecorder, and pprof on this host:port while the run is live (\"\" = off)")
	)
	flag.Parse()

	// Validate flags up front with usage errors, instead of letting a bad
	// value panic (or silently self-correct) deep inside engine deployment.
	scheme, err := splidt.ParseTableScheme(*table)
	if err != nil {
		usageError("-table: %v", err)
	}
	classLifetimes := parseClassLifetimes(*ltClass)
	if *shards < 0 {
		usageError("-shards must be >= 1 (or 0 for GOMAXPROCS), got %d", *shards)
	}
	for name, v := range map[string]int{
		"-feeders": *feeders, "-ways": *ways,
		"-burst": *burst, "-queue": *queue, "-slots": *slots, "-flows": *nFlows,
		"-train-flows": *trainFlows, "-waves": *waves,
	} {
		if v < 1 {
			usageError("%s must be >= 1, got %d", name, v)
		}
	}
	// -stash deliberately escapes the >= 1 rule: the library contract makes
	// 0 the default-selecting value and negative the stash-less deployment.

	parts := parseInts(*partitions, "partition depth", 1)
	id := splidt.Dataset(*dataset)
	if *dataset < 1 || *dataset > len(splidt.Datasets()) {
		log.Fatalf("dataset %d out of range 1-%d", *dataset, len(splidt.Datasets()))
	}
	classes := splidt.NumClasses(id)

	if *record != "" {
		recordWorkload(*record, id, *nFlows, *seed,
			time.Duration(*spacingUS)*time.Microsecond)
		return
	}

	// Train and compile once; every shard replicates the same program.
	flows := splidt.Generate(id, *trainFlows, *seed+1)
	samples := splidt.BuildSamples(flows, len(parts))
	train, _ := splidt.Split(samples, 0.7)
	trainCfg := splidt.Config{
		Partitions: parts, FeaturesPerSubtree: *k, NumClasses: classes,
		// Ageing runs on per-class adaptive lifetimes: derive them from the
		// training samples' per-leaf IAT statistics, with -lifetime-class
		// pinning specific classes by policy.
		Lifetimes:      *idleTO > 0,
		ClassLifetimes: classLifetimes,
	}
	m, err := splidt.Train(train, trainCfg)
	if err != nil {
		log.Fatal(err)
	}
	c, err := splidt.Compile(m)
	if err != nil {
		log.Fatal(err)
	}
	// Retrain-and-compile closure for -redeploy-at: same samples, same
	// architecture, a fresh Model/Compiled pair — what a control plane would
	// produce from an updated training set before a hitless swap.
	retrain := func() (*splidt.Model, *splidt.Compiled, error) {
		m2, err := splidt.Train(train, trainCfg)
		if err != nil {
			return nil, nil, err
		}
		c2, err := splidt.Compile(m2)
		if err != nil {
			return nil, nil, err
		}
		return m2, c2, nil
	}

	eng, err := splidt.NewEngine(splidt.EngineConfig{
		Deploy: splidt.DeployConfig{
			Profile: splidt.Tofino1(), Model: m, Compiled: c,
			FlowSlots: *slots, Workload: splidt.Webserver,
			Table: scheme, Ways: *ways, Stash: *stash,
			IdleTimeout: *idleTO,
		},
		Shards: *shards, Burst: *burst, Queue: *queue,
	})
	if err != nil {
		log.Fatal(err)
	}

	var tsrv *splidt.TelemetryServer
	if *telemetry != "" {
		tsrv, err = splidt.ServeTelemetry(*telemetry, splidt.TelemetryConfig{Engine: eng})
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		defer tsrv.Close()
	}

	fmt.Printf("model          %v\n", m)
	fmt.Printf("engine         %d shards × burst %d × queue %d (%d total slots)\n",
		eng.Shards(), *burst, *queue, *slots)
	if tsrv != nil {
		fmt.Printf("telemetry      http://%s/metrics /healthz /flightrecorder /debug/pprof\n", tsrv.Addr())
	}
	if scheme == splidt.TableCuckoo {
		fmt.Printf("flow table     cuckoo: %d-way buckets + %d-entry stash per shard, verified keys\n",
			*ways, splidt.TableStashLines(*stash))
	} else {
		fmt.Printf("flow table     %s\n", scheme)
	}
	if *idleTO > 0 {
		fmt.Printf("ageing         timer wheel, per-class lifetimes (base %v, max leaf %v), driven by packet time\n",
			*idleTO, c.MaxLifetime())
	}

	spacing := time.Duration(*spacingUS) * time.Microsecond
	if *live {
		if *feeders > 1 {
			log.Printf("-feeders %d ignored: live mode drives the session through FeedSource (single producer)", *feeders)
		}
		runLive(eng, tsrv, id, *nFlows, *seed, spacing, classes, *block, *waves,
			time.Duration(*reportMS)*time.Millisecond, *redeployAt, retrain)
		return
	}
	if *redeployAt > 0 {
		log.Printf("-redeploy-at %d ignored: hitless redeploy is demonstrated in -live mode", *redeployAt)
	}

	src := splidt.NewStream(id, *nFlows, *seed, spacing)
	if *feeders > 1 {
		res := runParallel(eng, tsrv, src, *feeders)
		report(id, *nFlows, classes, src.Labels(), res)
		return
	}
	res, err := eng.Run(src)
	if err != nil {
		log.Fatal(err)
	}
	report(id, *nFlows, classes, src.Labels(), res)
}

// runParallel drains the stream, splits it into feeders flow-disjoint
// partitions, and drives one session with a private Feeder per partition —
// the parallel-dispatch path (engine package: per-feeder staging bursts
// over MPSC shard rings).
func runParallel(eng *splidt.Engine, tsrv *splidt.TelemetryServer, src splidt.PacketSource, feeders int) *splidt.EngineResult {
	var pkts []splidt.Packet
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		pkts = append(pkts, p)
	}
	parts := splidt.PartitionPackets(pkts, feeders)
	sess, err := eng.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if tsrv != nil {
		tsrv.SetSession(sess)
	}
	var wg sync.WaitGroup
	for _, part := range parts {
		f, err := sess.NewFeeder()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(part []splidt.Packet) {
			defer wg.Done()
			if err := f.FeedAll(part); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}(part)
	}
	wg.Wait()
	res, err := sess.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dispatch       %d feeders over flow-disjoint partitions\n", feeders)
	return res
}

// runLive drives the streaming path: session + controller feedback loop,
// plus the optional mid-run hitless redeploy (-redeploy-at).
func runLive(eng *splidt.Engine, tsrv *splidt.TelemetryServer, id splidt.Dataset, nFlows int, seed int64,
	spacing time.Duration, classes int, block string, waves int, interval time.Duration,
	redeployAt int64, retrain func() (*splidt.Model, *splidt.Compiled, error)) {
	blocked := parseInts(block, "blocked class", 0)
	policy := splidt.ControllerPolicy(nil)
	if len(blocked) > 0 {
		policy = splidt.BlockClasses(blocked...)
	}
	ctrl := splidt.NewController(classes, policy)

	sess, err := eng.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if tsrv != nil {
		tsrv.SetSession(sess)
		tsrv.SetController(ctrl)
	}
	served := make(chan int, 1)
	go func() {
		n, serveErr := ctrl.Serve(sess)
		if serveErr != nil {
			log.Fatalf("digest stream died: %v", serveErr)
		}
		served <- n
	}()

	stop := make(chan struct{})
	if redeployAt > 0 {
		// Redeploy trigger: once the dispatcher has accepted redeployAt
		// packets, retrain and swap the tree under live traffic — the
		// workers hand off per shard at burst boundaries, flow state
		// carries across, and digests from then on are stamped with the
		// new deploy epoch (visible in the per-epoch report).
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sess.Snapshot().Fed >= redeployAt {
					m2, c2, rerr := retrain()
					if rerr != nil {
						log.Fatalf("redeploy: retrain failed: %v", rerr)
					}
					epoch, derr := sess.Redeploy(m2, c2)
					if derr != nil {
						log.Printf("redeploy: %v", derr)
						return
					}
					fmt.Printf("redeploy       epoch %d live after %d packets fed (hitless swap, flow state carried)\n",
						epoch, sess.Snapshot().Fed)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				snap := sess.Snapshot()
				fmt.Printf("live           fed=%d processed=%d digests=%d blocked-flows=%d dropped=%d active=%d evicted=%d collisions=%d backpressure=%d\n",
					snap.Fed, snap.Stats.Packets, snap.Stats.Digests,
					snap.BlockedFlows, snap.Dropped, snap.ActiveFlows,
					snap.Stats.Evictions, snap.Stats.Collisions, snap.Backpressure)
			case <-stop:
				return
			}
		}
	}()

	var labels map[splidt.FlowKey]int
	var wave0 time.Duration // packet-time offset of the current wave
	for w := 0; w < waves; w++ {
		src := splidt.NewStream(id, nFlows, seed, spacing)
		// Each wave replays the trace shifted past the previous wave's last
		// packet: repeat offenders arrive later in packet time, which keeps
		// the expiry wheels advancing instead of freezing at wave-1's end.
		shifted := &splidt.ShiftSource{Src: src, Offset: wave0}
		if err := sess.FeedSource(shifted); err != nil {
			log.Fatal(err)
		}
		wave0 = shifted.Max()
		labels = src.Labels()
		// Per-wave flow-table occupancy: with ageing on, leaked slots of
		// blocked early-exited flows are reclaimed by expiry, so
		// ActiveFlows stays bounded wave over wave instead of ratcheting
		// up. Quiesce first — FeedSource only hands packets to the rings,
		// and a mid-drain sample would show arbitrary peak occupancy.
		snap := waitSettled(sess)
		fmt.Printf("wave %-2d        active-flows=%d evicted=%d blocked-flows=%d collisions=%d\n",
			w+1, snap.ActiveFlows, snap.Stats.Evictions, snap.BlockedFlows,
			snap.Stats.Collisions)
	}
	res, err := sess.Close()
	if err != nil {
		log.Fatal(err)
	}
	close(stop)
	blockedDigests := <-served

	report(id, nFlows, classes, labels, res)
	final := sess.Snapshot()
	fmt.Printf("controller     %d digests, %d block verdicts, %d flows blocked, mean TTD %v\n",
		ctrl.Digests(), blockedDigests, final.BlockedFlows, ctrl.MeanTTD())
	fmt.Printf("dispatch       %d packets of blocked flows dropped before pipeline work\n", res.Dropped)
	fmt.Printf("flow table     %d slots still active, %d evicted by ageing/block, %d collision packets\n",
		final.ActiveFlows, res.Stats.Evictions, final.Stats.Collisions)
}

func report(id splidt.Dataset, nFlows, classes int, labels map[splidt.FlowKey]int, res *splidt.EngineResult) {
	// Score each flow once, on its first digest: with -waves > 1 unblocked
	// flows re-digest every wave while blocked ones don't, which would
	// otherwise weight accuracy toward the unblocked classes.
	conf := splidt.NewConfusion(classes)
	scored := make(map[splidt.FlowKey]bool, len(labels))
	for _, d := range res.Digests {
		if label, ok := labels[d.Key]; ok && !scored[d.Key] {
			scored[d.Key] = true
			conf.Add(label, d.Class)
		}
	}
	fmt.Printf("workload       %s: %d flows, %d packets\n", id, nFlows, res.Stats.Packets)
	fmt.Printf("throughput     %v\n", res.Throughput)
	fmt.Printf("digests        %d (%d recirculations, %d recirc bytes)\n",
		res.Stats.Digests, res.Stats.ControlPackets, res.Stats.RecircBytes)
	fmt.Printf("collisions     %d\n", res.Stats.Collisions)
	// Per-epoch digest split: only interesting after a mid-run redeploy —
	// epoch 0 is the deployment the session started with, each Redeploy
	// bumps the stamp on every digest emitted after the shard adopted it.
	byEpoch := map[uint64]int{}
	var maxEpoch uint64
	for _, d := range res.Digests {
		byEpoch[d.Epoch]++
		if d.Epoch > maxEpoch {
			maxEpoch = d.Epoch
		}
	}
	if maxEpoch > 0 {
		epochs := make([]uint64, 0, len(byEpoch))
		for e := range byEpoch {
			epochs = append(epochs, e)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
		fmt.Printf("digest epochs  ")
		for i, e := range epochs {
			if i > 0 {
				fmt.Printf(" | ")
			}
			fmt.Printf("epoch %d: %d", e, byEpoch[e])
		}
		fmt.Println()
	}
	fmt.Printf("accuracy       %.3f   macro-F1 %.3f\n", conf.Accuracy(), conf.MacroF1())
	fmt.Printf("per-shard      ")
	for i, s := range res.PerShard {
		if i > 0 {
			fmt.Printf(" | ")
		}
		fmt.Printf("%d: %dp/%dd", i, s.Packets, s.Digests)
	}
	fmt.Println()
}

// waitSettled blocks until the workers have drained everything fed so far
// (every packet processed or dropped, two consecutive snapshots equal) and
// returns the settled snapshot.
func waitSettled(sess *splidt.EngineSession) splidt.EngineSnapshot {
	for {
		a := sess.Snapshot()
		if int64(a.Stats.Packets)+a.Dropped+a.QuarantineDropped+a.DiscardedStaged == a.Fed {
			time.Sleep(2 * time.Millisecond)
			b := sess.Snapshot()
			if a.Stats == b.Stats && a.Fed == b.Fed {
				return b
			}
			continue
		}
		time.Sleep(time.Millisecond)
	}
}

// recordWorkload streams the generated workload into a wire-format record
// file — the capture the load harness replays with zero-copy ingest.
func recordWorkload(path string, id splidt.Dataset, n int, seed int64, spacing time.Duration) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w, err := pkt.NewRecordWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	src := splidt.NewStream(id, n, seed, spacing)
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := w.WritePacket(p); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded       %s: %d flows, %d packets -> %s\n", id, n, w.Records(), path)
}

// usageError reports a bad flag value the way flag parsing itself would: a
// message plus the usage text, exit 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "splidt-engine: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// parseClassLifetimes parses the -lifetime-class value: comma-separated
// class=duration pairs.
func parseClassLifetimes(s string) map[int]time.Duration {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	out := make(map[int]time.Duration)
	for _, tok := range strings.Split(s, ",") {
		cls, dur, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok {
			log.Fatalf("bad -lifetime-class entry %q (want class=duration)", tok)
		}
		c, err := strconv.Atoi(strings.TrimSpace(cls))
		if err != nil || c < 0 {
			log.Fatalf("bad -lifetime-class class %q", cls)
		}
		d, err := time.ParseDuration(strings.TrimSpace(dur))
		if err != nil || d <= 0 {
			log.Fatalf("bad -lifetime-class duration %q", dur)
		}
		out[c] = d
	}
	return out
}

func parseInts(s, what string, min int) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < min {
			log.Fatalf("bad %s %q", what, tok)
		}
		out = append(out, v)
	}
	return out
}
