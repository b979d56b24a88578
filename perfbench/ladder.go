package main

import (
	"fmt"
	"runtime"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/features"
	"splidt/internal/flow"
	"splidt/internal/flowtable"
	"splidt/internal/pkt"
)

// ladderResult is the outside-in decomposition of one shard's per-packet
// work, each rung timed over the same captured packets through the layer's
// public calls. Per-packet rungs are ns/pkt; window-end rungs are ns per
// window end.
type ladderResult struct {
	pkts, windows int

	hash, cuckoo, direct, update, process float64 // ns/pkt
	snapshot, marks, lookup               float64 // ns per window end
}

// windowsPerPkt is the share of packets that end a window.
func (l ladderResult) windowsPerPkt() float64 { return float64(l.windows) / float64(l.pkts) }

// rungSum is what the rungs account for of one Process call: the table
// acquire (which includes its own key hash), the feature fold, and the
// window-end work amortised per packet.
func (l ladderResult) rungSum() float64 {
	return l.cuckoo + l.update + l.windowsPerPkt()*(l.snapshot+l.marks+l.lookup)
}

// parkedSID mirrors the data plane's parked-entry marker: a flow that
// exited early holds its entry, uninferred, until its last packet.
const parkedSID = 0xFFFF

// ladderSink keeps the timed calls' results live.
var ladderSink uint64

// runLadder captures a prefix of the workload's seeded streams (both
// feeders, interleaved chunk by chunk as they are offered), keeps the
// packets shard 0 receives, and replays the second half of them — the
// first half warms each rung's table — through each layer in turn, at
// shard 0's table size.
func runLadder(rg *rig) (ladderResult, error) {
	streams, err := newStreams(rg.sp, rg.seed)
	if err != nil {
		return ladderResult{}, err
	}
	preroll(rg.sp, streams)
	var pk []pkt.Packet
	for taken := 0; taken < rg.sp.ladderPkts; {
		for _, st := range streams {
			for k := 0; k < chunk; k++ {
				if p := st.next(); p.Shard(numShards) == 0 {
					pk = append(pk, p)
				}
				taken++
			}
		}
	}
	warm := len(pk) / 2
	slots := rg.sp.slots / numShards
	l := ladderResult{pkts: len(pk) - warm}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(l.pkts) }

	// flow.hash: canonical key and CRC32 index hash.
	t := time.Now()
	var h uint32
	for i := warm; i < len(pk); i++ {
		h += pk[i].Key.Canonical().Hash()
	}
	l.hash = per(time.Since(t))
	ladderSink += uint64(h)

	// flowtable: Acquire every packet's flow, Release at flow end.
	runtime.GC()
	l.cuckoo = per(acquireRung(flowtable.NewCuckoo(flowtable.CuckooConfig{Capacity: slots}), pk, warm))
	runtime.GC()
	l.direct = per(acquireRung(flowtable.NewDirect(slots), pk, warm))

	// features.update: fold each packet into its flow's window state,
	// resetting at window ends, with the state of each packet's flow
	// resolved beforehand.
	runtime.GC()
	l.update = per(updateRung(pk, warm))

	// Window ends: record every window end's state, subtree and feature
	// vector by replaying the pipeline's logic, then time each call over
	// the recorded inputs.
	runtime.GC()
	ends, err := recordWindowEnds(rg, pk, warm, slots)
	if err != nil {
		return ladderResult{}, err
	}
	l.windows = len(ends)
	if l.windows > 0 {
		perWin := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(l.windows) }
		t = time.Now()
		var s float64
		for i := range ends {
			v := ends[i].state.Snapshot()
			s += v[0]
		}
		l.snapshot = perWin(time.Since(t))
		marks := make([]uint32, rg.compiled.K)
		t = time.Now()
		var m uint32
		for i := range ends {
			m += rg.compiled.MarksInto(ends[i].sid, ends[i].vec[:], marks)[0]
		}
		l.marks = perWin(time.Since(t))
		t = time.Now()
		for i := range ends {
			r, _ := rg.compiled.Lookup(ends[i].sid, ends[i].marks)
			m += uint32(r.Class)
		}
		l.lookup = perWin(time.Since(t))
		ladderSink += uint64(s) + uint64(m)
	}
	ends = nil

	// dataplane.process: the whole single-threaded pipeline, the baseline
	// of the job one shard does.
	runtime.GC()
	cfg := deployConfig(rg.sp, rg.model, rg.compiled)
	cfg.FlowSlots = slots
	pl, err := dataplane.New(cfg)
	if err != nil {
		return ladderResult{}, fmt.Errorf("ladder pipeline: %w", err)
	}
	var digests uint64
	for i := 0; i < warm; i++ {
		if pl.Process(pk[i]) != nil {
			digests++
		}
	}
	t = time.Now()
	for i := warm; i < len(pk); i++ {
		if pl.Process(pk[i]) != nil {
			digests++
		}
	}
	l.process = per(time.Since(t))
	ladderSink += digests
	return l, nil
}

// acquireRung times Acquire (plus Release at each flow's last packet) over
// pk[warm:], after an untimed pass over pk[:warm].
func acquireRung(tbl flowtable.Store, pk []pkt.Packet, warm int) time.Duration {
	var t time.Time
	for i := range pk {
		if i == warm {
			t = time.Now()
		}
		p := &pk[i]
		e, st := tbl.Acquire(p.Key.Canonical())
		switch st {
		case flowtable.StatusFresh:
			e.SID = 1
		case flowtable.StatusFull, flowtable.StatusShared:
			continue
		}
		if p.Seq >= p.FlowSize {
			tbl.Release(e)
		}
	}
	return time.Since(t)
}

// updateRung times FlowState.Update over pk[warm:]. Each packet's state
// slot is resolved first, off the clock; slots recycle at flow end.
func updateRung(pk []pkt.Packet, warm int) time.Duration {
	idx := make([]int32, len(pk))
	live := map[flow.Key]int32{}
	var free []int32
	next := int32(0)
	for i := range pk {
		k := pk[i].Key.Canonical()
		s, ok := live[k]
		if !ok {
			if n := len(free); n > 0 {
				s, free = free[n-1], free[:n-1]
			} else {
				s, next = next, next+1
			}
			live[k] = s
		}
		idx[i] = s
		if pk[i].Seq >= pk[i].FlowSize {
			delete(live, k)
			free = append(free, s)
		}
	}
	live, free = nil, nil
	states := make([]features.FlowState, next)
	parts := len(partitions)
	var t time.Time
	for i := range pk {
		if i == warm {
			t = time.Now()
		}
		s := &states[idx[i]]
		s.Update(pk[i])
		if pk[i].IsWindowEnd(parts) {
			s.Reset()
		}
	}
	return time.Since(t)
}

// windowEnd is one recorded window end: the flow's state before the
// snapshot, its subtree, and the vector and marks the snapshot produced.
type windowEnd struct {
	state features.FlowState
	sid   int
	vec   features.Vector
	marks []uint32
}

// recordWindowEnds replays the pipeline's per-packet logic through the
// public layer calls, off the clock, and records the window ends of
// pk[warm:].
func recordWindowEnds(rg *rig, pk []pkt.Packet, warm, slots int) ([]windowEnd, error) {
	tbl := flowtable.NewCuckoo(flowtable.CuckooConfig{Capacity: slots})
	c := rg.compiled
	scratch := make([]uint32, c.K)
	parts := len(partitions)
	var ends []windowEnd
	for i := range pk {
		p := pk[i]
		e, st := tbl.Acquire(p.Key.Canonical())
		switch st {
		case flowtable.StatusFresh:
			e.SID = 1
			e.Started = p.TS
		case flowtable.StatusFull:
			continue
		}
		if e.SID == parkedSID {
			if p.Seq >= p.FlowSize {
				tbl.Release(e)
			}
			continue
		}
		e.State.Update(p)
		e.PktCount++
		if !p.IsWindowEnd(parts) {
			continue
		}
		before := e.State
		vec := e.State.Snapshot()
		marks := c.MarksInto(int(e.SID), vec[:], scratch)
		rule, ok := c.Lookup(int(e.SID), marks)
		if !ok {
			return nil, fmt.Errorf("ladder: model table miss at SID %d", e.SID)
		}
		if i >= warm {
			ends = append(ends, windowEnd{state: before, sid: int(e.SID), vec: vec, marks: append([]uint32(nil), marks...)})
		}
		switch {
		case p.Seq >= p.FlowSize:
			tbl.Release(e)
		case rule.Exit:
			e.SID = parkedSID
			e.State.Reset()
		default:
			e.SID = uint16(rule.Next)
			e.State.Reset()
		}
	}
	return ends, nil
}
