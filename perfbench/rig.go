package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/loadgen"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

// stream is one feeder's packet source: a churn generator with a one-packet
// lookahead, so a preroll can stop exactly at the first packet past its
// cut and a paced feeder can hold a packet until it is due.
type stream struct {
	gen  *loadgen.ChurnGen
	peek pkt.Packet
	has  bool
}

func (s *stream) next() pkt.Packet {
	if s.has {
		s.has = false
		return s.peek
	}
	p, _ := s.gen.Next()
	return p
}

// skipTo consumes packets before virtual time ts; the first packet at or
// past it stays pending.
func (s *stream) skipTo(ts time.Duration) {
	for {
		p := s.next()
		if p.TS >= ts {
			s.peek, s.has = p, true
			return
		}
	}
}

// newStreams builds one generator per feeder over flow-disjoint slices of
// the workload's population. The same (spec, seed) always yields the same
// packets.
func newStreams(sp spec, seed int64) ([]*stream, error) {
	cfgs := loadgen.PerFeeder(loadgen.ChurnConfig{
		Flows:           sp.flows,
		Seed:            seed,
		Workload:        sp.workload,
		LongIATFraction: sp.longFrac,
		TimeScale:       sp.timeScale,
	}, numFeeders)
	out := make([]*stream, len(cfgs))
	for i, c := range cfgs {
		g, err := loadgen.NewChurn(c)
		if err != nil {
			return nil, fmt.Errorf("loadgen.NewChurn: %w", err)
		}
		out[i] = &stream{gen: g}
	}
	return out, nil
}

// preroll runs every stream through the workload's preroll cut, in
// parallel (the streams are independent).
func preroll(sp spec, streams []*stream) {
	if sp.preroll <= 0 {
		return
	}
	done := make(chan struct{}, len(streams))
	for _, st := range streams {
		go func(st *stream) {
			st.skipTo(sp.preroll)
			done <- struct{}{}
		}(st)
	}
	for range streams {
		<-done
	}
}

// trainTree trains one tree on generated flows of the workload's dataset.
func trainTree(seed int64) (*core.Model, error) {
	flows := trace.Generate(dataset, trainFlows, seed)
	train, _ := trace.Split(trace.BuildSamples(flows, len(partitions)), 0.7)
	m, err := core.Train(train, core.Config{
		Partitions:         partitions,
		FeaturesPerSubtree: featuresPerSubtree,
		NumClasses:         trace.NumClasses(dataset),
	})
	if err != nil {
		return nil, fmt.Errorf("core.Train: %w", err)
	}
	return m, nil
}

func deployConfig(sp spec, m *core.Model, c *rangemark.Compiled) dataplane.Config {
	return dataplane.Config{
		Profile:     resources.Tofino1(),
		Model:       m,
		Compiled:    c,
		FlowSlots:   sp.slots,
		Table:       dataplane.TableCuckoo,
		Workload:    sp.workload,
		IdleTimeout: sp.idleTimeout,
	}
}

// setupTimes are the spans of one set-up, in order.
type setupTimes struct {
	train, compile, engineNew, loadgenNew, start time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.train + t.compile + t.engineNew + t.loadgenNew + t.start
}

// rig is one set-up workload: trees, engine, running session and streams.
type rig struct {
	sp       spec
	seed     int64
	model    *core.Model
	compiled *rangemark.Compiled
	// model2/compiled2 are the redeploy tree (control workloads only).
	model2    *core.Model
	compiled2 *rangemark.Compiled
	eng       *engine.Engine
	sess      *engine.Session
	streams   []*stream
	times     setupTimes
	// goroutinesBefore is runtime.NumGoroutine just before Start.
	goroutinesBefore int
}

// buildRig performs one timed set-up: train, compile, engine.New,
// generator build, Start. The session is started in bounded digest mode
// and without WithDigestLatency: latency is measured from outside.
func buildRig(sp spec, seed int64) (*rig, error) {
	r := &rig{sp: sp, seed: seed}
	var err error

	t := time.Now()
	if r.model, err = trainTree(seed + 1); err != nil {
		return nil, err
	}
	if sp.control {
		if r.model2, err = trainTree(seed + 1001); err != nil {
			return nil, err
		}
	}
	r.times.train = time.Since(t)

	t = time.Now()
	if r.compiled, err = rangemark.Compile(r.model); err != nil {
		return nil, fmt.Errorf("rangemark.Compile: %w", err)
	}
	if sp.control {
		if r.compiled2, err = rangemark.Compile(r.model2); err != nil {
			return nil, fmt.Errorf("rangemark.Compile: %w", err)
		}
	}
	r.times.compile = time.Since(t)

	t = time.Now()
	r.eng, err = engine.New(engine.Config{
		Deploy: deployConfig(sp, r.model, r.compiled),
		Shards: numShards,
	})
	if err != nil {
		return nil, fmt.Errorf("engine.New: %w", err)
	}
	r.times.engineNew = time.Since(t)

	t = time.Now()
	if r.streams, err = newStreams(sp, seed); err != nil {
		return nil, err
	}
	r.times.loadgenNew = time.Since(t)

	r.goroutinesBefore = runtime.NumGoroutine()
	t = time.Now()
	if r.sess, err = r.eng.Start(context.Background(), engine.WithBoundedDigests()); err != nil {
		return nil, fmt.Errorf("engine.Start: %w", err)
	}
	r.times.start = time.Since(t)
	return r, nil
}

// setupRepeats is how many complete set-ups a run times; setup_s is their
// median, since one set-up is a few hundred milliseconds of allocation
// that a single GC cycle can shift.
const setupRepeats = 7

// setup times `repeats` set-ups, each from a freshly collected heap, and
// keeps the last; the others are closed and dropped.
func setup(sp spec, seed int64, repeats int) (*rig, []setupTimes, error) {
	var all []setupTimes
	var r *rig
	for i := 0; i < repeats; i++ {
		if r != nil {
			if _, err := r.sess.Close(); err != nil {
				return nil, nil, fmt.Errorf("closing a discarded set-up: %w", err)
			}
			r = nil
		}
		runtime.GC()
		var err error
		if r, err = buildRig(sp, seed); err != nil {
			return nil, nil, err
		}
		all = append(all, r.times)
	}
	return r, all, nil
}

// medianSetup is the median over set-ups of one span (or of the total).
func medianSetup(all []setupTimes, get func(setupTimes) time.Duration) time.Duration {
	xs := make([]time.Duration, len(all))
	for i, t := range all {
		xs[i] = get(t)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}
