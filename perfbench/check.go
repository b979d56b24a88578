package main

import (
	"errors"
	"fmt"
	"sync"

	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/flow"
)

// fingerprint is an order-independent digest of a multiset of digests:
// the count and the wrapping sum of a 64-bit mix of each digest's
// (Key, Class, At, Started, Packets, Epoch). Equal multisets give equal
// fingerprints whatever order the shards emitted them in.
type fingerprint struct {
	n   int64
	sum uint64
}

func (f *fingerprint) add(d dataplane.Digest) {
	h := uint64(d.Key.SrcIP)<<32 | uint64(d.Key.DstIP)
	h = flow.Mix64(h ^ (uint64(d.Key.SrcPort)<<24 | uint64(d.Key.DstPort)<<8 | uint64(d.Key.Proto)))
	h = flow.Mix64(h ^ uint64(d.Class))
	h = flow.Mix64(h ^ uint64(d.At))
	h = flow.Mix64(h ^ uint64(d.Started))
	h = flow.Mix64(h ^ uint64(d.Packets))
	h = flow.Mix64(h ^ d.Epoch)
	f.n++
	f.sum += h
}

func (f *fingerprint) merge(o fingerprint) {
	f.n += o.n
	f.sum += o.sum
}

func (f fingerprint) String() string { return fmt.Sprintf("%d digests, sum %016x", f.n, f.sum) }

// oracleFingerprint replays, off the clock, exactly the packets each
// feeder offered through a single-threaded pipeline over the oracle table
// (an unbounded exact map): the reference every engine configuration must
// equal when no packet is rejected or blocked. Flows never cross feeders,
// so each feeder's stream replays through its own pipeline, in parallel.
func oracleFingerprint(rg *rig, offered []int64) (fingerprint, error) {
	streams, err := newStreams(rg.sp, rg.seed)
	if err != nil {
		return fingerprint{}, err
	}
	preroll(rg.sp, streams)
	cfg := deployConfig(rg.sp, rg.model, rg.compiled)
	cfg.Table = dataplane.TableOracle
	cfg.FlowSlots = rg.sp.slots / numShards
	cfg.IdleTimeout = 0
	fps := make([]fingerprint, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *stream) {
			defer wg.Done()
			pl, err := dataplane.New(cfg)
			if err != nil {
				errs[i] = fmt.Errorf("oracle pipeline: %w", err)
				return
			}
			for k := int64(0); k < offered[i]; k++ {
				if d := pl.Process(st.next()); d != nil {
					fps[i].add(*d)
				}
			}
		}(i, st)
	}
	wg.Wait()
	var fp fingerprint
	for _, f := range fps {
		fp.merge(f)
	}
	return fp, errors.Join(errs...)
}

// verdict collects failed output checks.
type verdict struct{ failures []string }

func (v *verdict) expect(ok bool, format string, args ...any) {
	if !ok {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) ok() bool { return len(v.failures) == 0 }

// check runs every output check that applies to the workload.
func check(out *outcome) verdict {
	var v verdict
	sp := out.rig.sp
	snap := out.final
	var offered int64
	for _, n := range out.offered {
		offered += n
	}

	// Conservation: every offered packet is accepted, and every accepted
	// packet is processed or accounted as dropped.
	v.expect(offered == snap.Fed, "conservation: offered %d != Fed %d", offered, snap.Fed)
	accounted := int64(out.result.Stats.Packets) + snap.Dropped + snap.QuarantineDropped + snap.DiscardedStaged
	v.expect(snap.Fed == accounted,
		"conservation: Fed %d != processed %d + dropped %d + quarantine-dropped %d + discarded-staged %d",
		snap.Fed, out.result.Stats.Packets, snap.Dropped, snap.QuarantineDropped, snap.DiscardedStaged)
	for _, err := range out.feedErrs {
		v.expect(false, "feed error: %v", err)
	}
	v.expect(out.closeErr == nil, "Session.Close: %v", out.closeErr)
	v.expect(out.health.Err == nil, "Session.Err: %v", out.health.Err)
	for i, sh := range out.health.Shards {
		v.expect(sh.State != engine.ShardQuarantined, "shard %d quarantined", i)
	}
	v.expect(out.cons.unmatched == 0, "%d digests name a classifying packet that was never offered", out.cons.unmatched)

	if sp.oracle {
		v.expect(out.result.Stats.Collisions == 0, "flow table rejected %d packets", out.result.Stats.Collisions)
		v.expect(snap.Dropped == 0, "%d packets dropped by the block filter", snap.Dropped)
		v.expect(out.cons.fp.n == int64(out.result.Stats.Digests),
			"consumer received %d digests, engine emitted %d", out.cons.fp.n, out.result.Stats.Digests)
		want, err := oracleFingerprint(out.rig, out.offered)
		v.expect(err == nil, "oracle replay: %v", err)
		v.expect(out.cons.fp == want, "digest multiset differs from the single-threaded oracle: engine %v, oracle %v", out.cons.fp, want)
	}

	if sp.control {
		v.expect(out.cons.serveErr == nil, "controller.Serve: %v", out.cons.serveErr)
		got := int64(out.cons.ctrl.Digests())
		v.expect(got == int64(out.result.Stats.Digests),
			"controller ingested %d digests, engine emitted %d", got, out.result.Stats.Digests)
		w := out.untraced
		if out.traced != nil {
			w = out.traced
		}
		v.expect(w.redeployed && w.redeployErr == nil, "Session.Redeploy: %v", w.redeployErr)
		for i, sh := range out.health.Shards {
			v.expect(sh.Epoch == w.epoch, "shard %d runs epoch %d, Redeploy returned %d", i, sh.Epoch, w.epoch)
		}
		v.expect(w.epoch > 0 && out.cons.epochs[0] > 0 && out.cons.epochs[w.epoch] > 0 &&
			len(out.cons.epochs) == 2,
			"digests should carry epochs 0 and %d, got %v", w.epoch, out.cons.epochs)
	}
	return v
}
