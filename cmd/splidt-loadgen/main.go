// Command splidt-loadgen is the open-loop load harness CLI: it trains and
// deploys a partitioned tree across a sharded engine, then drives it with a
// continuously churning flow population — a fixed number of concurrently
// live flows whose identities turn over as flows complete and are reborn —
// through a schedule of phases, reporting per-phase digest-latency
// percentiles, flow-table occupancy, eviction/reject counters, and achieved
// packet rates.
//
// The harness is open-loop: feeders pace against an absolute schedule and
// never shed, so overload shows up as lag and latency rather than silently
// reduced offered load. -rate 0 (the default) disables pacing and measures
// peak sustainable throughput instead.
//
// The phase schedule is space-separated name:packets[:knob=value,...]
// entries; packet counts take k/m suffixes. Knobs: coll=F directs fraction
// F of flow rebirths to draw from a precomputed pool of keys that collide
// into few flow-table buckets (a collision storm; needs -collision-groups),
// block=N installs a block verdict on a random live flow every N offered
// packets per feeder (a block storm), rate=F scales the -rate target for
// the phase (a surge or lull), redeploy=1 retrains a tree on fresh traffic
// and hitlessly swaps it in mid-phase while the feeders stay live (the
// adopted deploy epoch lands in the phase report).
//
// -wire <file> replays a recorded wire-format workload (splidt-engine
// -record) through the zero-copy ingest path instead of generating one;
// wire mode is single-feeder and ignores the churn knobs.
//
// Usage:
//
//	splidt-loadgen -flows 100000 -shards 4 -slots 262144 -phases "steady:2m"
//	splidt-loadgen -flows 1200000 -shards 8 -slots 2097152 \
//	    -phases "steady:4m storm:3m:coll=0.5 blockstorm:3m:block=2000"
//	splidt-loadgen -rate 500000 -flows 50000 -phases "warm:1m surge:1m:rate=2"
//	splidt-loadgen -flows 100000 -phases "warm:2m swap:2m:redeploy=1 settle:2m"
//	splidt-engine -dataset 3 -flows 5000 -record ws.splt && splidt-loadgen -wire ws.splt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"splidt"
	"splidt/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("splidt-loadgen: ")

	var (
		dataset    = flag.Int("dataset", 3, "dataset number (1-7) the deployed model is trained on")
		trainFlows = flag.Int("train-flows", 400, "flows used to train the model")
		partitions = flag.String("partitions", "3,2,2", "comma-separated partition depths")
		k          = flag.Int("k", 4, "features per subtree")
		seed       = flag.Int64("seed", 1, "workload seed")
		shards     = flag.Int("shards", 0, "pipeline replicas / worker goroutines (0 = GOMAXPROCS)")
		slots      = flag.Int("slots", 1<<18, "total flow register slots (split across shards)")
		table      = flag.String("table", "cuckoo", "flow-table scheme: cuckoo (associative, the churn-regime default), direct, or oracle")
		burst      = flag.Int("burst", 32, "packets per burst")
		queue      = flag.Int("queue", 8, "per-shard queue depth in bursts")
		idleTO     = flag.Duration("idle-timeout", 0, "flow-table ageing: base idle lifetime in packet (virtual) time, refined per class from leaf IAT statistics (0 = off)")

		flows     = flag.Int("flows", 100_000, "concurrent flow population (total across feeders)")
		feeders   = flag.Int("feeders", 2, "parallel producer goroutines, each with a private feeder and a disjoint slice of the population")
		rate      = flag.Float64("rate", 0, "total offered packets/sec across feeders (0 = unpaced, peak throughput)")
		timeScale = flag.Float64("time-scale", 1000, "virtual-time compression: flow lifetimes and gaps divided by this, so a run covers proportionally more churn")
		longFrac  = flag.Float64("long-frac", 0.05, "fraction of flows that are heavy-tailed keepalives (long idle gaps)")
		rebirth   = flag.Duration("rebirth-delay", time.Millisecond, "mean virtual-time gap between a flow's death and rebirth")
		collGroup = flag.Int("collision-groups", 0, "enable collision storms: pool keys concentrate into this many flow-table buckets (0 = storms off)")
		poolSize  = flag.Int("pool", 1024, "precomputed colliding keys (collision storms)")
		blockRing = flag.Int("block-ring", 1024, "outstanding block verdicts per feeder during block storms")
		phasesArg = flag.String("phases", "steady:1m", "space-separated phase schedule: name:packets[:knob=value,...] with k/m packet suffixes; knobs coll=F block=N rate=F redeploy=1")
		wire      = flag.String("wire", "", "replay this recorded wire-format workload instead of generating one (single feeder; churn knobs ignored)")
		telemetry = flag.String("telemetry", "", "serve /metrics, /healthz, /flightrecorder, and pprof on this host:port during the run (\"\" = off)")
	)
	flag.Parse()

	scheme, err := splidt.ParseTableScheme(*table)
	if err != nil {
		usageError("-table: %v", err)
	}
	phases, err := parsePhases(*phasesArg)
	if err != nil {
		usageError("-phases: %v", err)
	}
	if *wire == "" {
		for _, ph := range phases {
			if ph.CollisionFrac > 0 && *collGroup <= 0 {
				usageError("phase %q uses coll= but -collision-groups is 0", ph.Name)
			}
		}
	}
	parts := parseInts(*partitions, "partition depth")
	id := splidt.Dataset(*dataset)
	if *dataset < 1 || *dataset > len(splidt.Datasets()) {
		log.Fatalf("dataset %d out of range 1-%d", *dataset, len(splidt.Datasets()))
	}

	// Train and compile once; every shard replicates the same program.
	tf := splidt.Generate(id, *trainFlows, *seed+1)
	samples := splidt.BuildSamples(tf, len(parts))
	train, _ := splidt.Split(samples, 0.7)
	m, err := splidt.Train(train, splidt.Config{
		Partitions: parts, FeaturesPerSubtree: *k, NumClasses: splidt.NumClasses(id),
		Lifetimes: *idleTO > 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := splidt.Compile(m)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := splidt.NewEngine(splidt.EngineConfig{
		Deploy: splidt.DeployConfig{
			Profile: splidt.Tofino1(), Model: m, Compiled: c,
			FlowSlots: *slots, Workload: splidt.Webserver,
			Table: scheme, IdleTimeout: *idleTO,
		},
		Shards: *shards, Burst: *burst, Queue: *queue,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A redeploy=1 phase retrains on fresh traffic (a new seed per swap) and
	// hitlessly swaps the tree while the feeders stay live.
	redeploySeed := *seed + 1000
	redeploy := func() (*splidt.Model, *splidt.Compiled, error) {
		redeploySeed++
		tf := splidt.Generate(id, *trainFlows, redeploySeed)
		train, _ := splidt.Split(splidt.BuildSamples(tf, len(parts)), 0.7)
		m2, err := splidt.Train(train, splidt.Config{
			Partitions: parts, FeaturesPerSubtree: *k, NumClasses: splidt.NumClasses(id),
			Lifetimes: *idleTO > 0,
		})
		if err != nil {
			return nil, nil, err
		}
		c2, err := splidt.Compile(m2)
		if err != nil {
			return nil, nil, err
		}
		return m2, c2, nil
	}

	cfg := loadgen.Config{
		Engine:    eng,
		Feeders:   *feeders,
		Rate:      *rate,
		Phases:    phases,
		BlockRing: *blockRing,
		Redeploy:  redeploy,
		Churn: loadgen.ChurnConfig{
			Flows:           *flows,
			Seed:            *seed,
			Workload:        splidt.Webserver,
			LongIATFraction: *longFrac,
			TimeScale:       *timeScale,
			RebirthDelay:    *rebirth,
			PoolSize:        *poolSize,
		},
	}
	if *collGroup > 0 {
		cfg.Churn.CollisionTable = *slots
		cfg.Churn.CollisionGroups = *collGroup
	}

	var tsrv *splidt.TelemetryServer
	if *telemetry != "" {
		tsrv, err = splidt.ServeTelemetry(*telemetry, splidt.TelemetryConfig{Engine: eng})
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		defer tsrv.Close()
		// The harness owns session startup; bind /healthz and the sampler to
		// it the moment it exists.
		cfg.OnSession = func(s *splidt.EngineSession) { tsrv.SetSession(s) }
	}

	var wireSrc *loadgen.WireSource
	if *wire != "" {
		f, err := os.Open(*wire)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if wireSrc, err = loadgen.NewWireSource(f); err != nil {
			log.Fatal(err)
		}
		cfg.Source = wireSrc
	}

	fmt.Printf("model          %v\n", m)
	fmt.Printf("engine         %d shards, %d total slots, %s table\n",
		eng.Shards(), *slots, scheme)
	if *wire != "" {
		fmt.Printf("workload       wire replay of %s (zero-copy ingest, single feeder)\n", *wire)
	} else {
		fmt.Printf("workload       %d concurrent flows over %d feeders, time-scale %gx, %.0f%% keepalive\n",
			*flows, *feeders, *timeScale, 100**longFrac)
	}
	if *rate > 0 {
		fmt.Printf("pacing         open-loop at %.0f pkts/s total (never sheds; slip reports as lag)\n", *rate)
	} else {
		fmt.Printf("pacing         unpaced: peak sustainable throughput\n")
	}
	if tsrv != nil {
		fmt.Printf("telemetry      http://%s/metrics /healthz /flightrecorder /debug/pprof\n", tsrv.Addr())
	}

	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range rep.Phases {
		fmt.Println(pr)
	}
	fmt.Println(rep.Total)
	if wireSrc != nil {
		if err := wireSrc.Err(); err != nil {
			log.Fatalf("wire stream: %v", err)
		}
		fmt.Printf("wire           %d data packets, %d non-data records skipped\n",
			wireSrc.Packets(), wireSrc.Skipped())
	}
	fmt.Printf("table          %d/%d slots occupied at close (%.1f%%)\n",
		rep.Total.ActiveFlows, rep.TableCap, 100*rep.Total.Occupancy)
}

// parsePhases parses the -phases value: space-separated
// name:packets[:knob=value,...] entries, packet counts with optional k/m
// suffixes, knobs coll=F block=N rate=F redeploy=1.
func parsePhases(s string) ([]loadgen.Phase, error) {
	var out []loadgen.Phase
	for _, tok := range strings.Fields(s) {
		parts := strings.SplitN(tok, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("phase %q: want name:packets[:knobs]", tok)
		}
		ph := loadgen.Phase{Name: parts[0]}
		n, err := parseCount(parts[1])
		if err != nil {
			return nil, fmt.Errorf("phase %q: %v", tok, err)
		}
		ph.Packets = n
		if len(parts) == 3 {
			for _, kv := range strings.Split(parts[2], ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("phase %q: knob %q (want knob=value)", tok, kv)
				}
				switch key {
				case "coll":
					if ph.CollisionFrac, err = strconv.ParseFloat(val, 64); err != nil {
						return nil, fmt.Errorf("phase %q: coll=%q: %v", tok, val, err)
					}
				case "block":
					if ph.BlockEvery, err = parseCount(val); err != nil {
						return nil, fmt.Errorf("phase %q: block=%q: %v", tok, val, err)
					}
				case "rate":
					if ph.RateFactor, err = strconv.ParseFloat(val, 64); err != nil {
						return nil, fmt.Errorf("phase %q: rate=%q: %v", tok, val, err)
					}
				case "redeploy":
					if ph.Redeploy, err = strconv.ParseBool(val); err != nil {
						return nil, fmt.Errorf("phase %q: redeploy=%q: %v", tok, val, err)
					}
				default:
					return nil, fmt.Errorf("phase %q: unknown knob %q (coll, block, rate, redeploy)", tok, key)
				}
			}
		}
		out = append(out, ph)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty schedule")
	}
	return out, nil
}

// parseCount parses an integer with an optional k (×1e3) or m (×1e6) suffix.
func parseCount(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return n * mult, nil
}

func parseInts(s, what string) []int {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			log.Fatalf("bad %s %q", what, tok)
		}
		out = append(out, v)
	}
	return out
}

func usageError(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "splidt-loadgen: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
