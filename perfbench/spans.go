package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. A burst span is the root of one feeder burst (its children:
// loadgen.next, engine.feed); a digest span runs from the classifying
// packet's due time to its receipt (its children, on blocked flows:
// controller.record, engine.block, engine.evict).
const (
	spanBurst      = "burst"
	spanNext       = "loadgen.next"
	spanFeed       = "engine.feed"
	spanDigest     = "digest"
	spanRecord     = "controller.record"
	spanBlock      = "engine.block"
	spanEvict      = "engine.evict"
	spanRedeploy   = "engine.redeploy"
	maxSpansPerRec = 1 << 21
)

// span is one traced interval. Times are nanoseconds since the run's
// origin; parent indexes the same recorder's spans (-1 for a root); id
// names the burst or digest the span belongs to.
type span struct {
	name       string
	id         int64
	parent     int32
	start, end int64
}

// spanRec is one goroutine's span log: kept in memory, written out when
// the run ends. Recorders are never shared, so recording takes no lock.
type spanRec struct {
	who     string
	spans   []span
	dropped int64
}

// add records a span and returns its index (-1 once the log is full; the
// span is then counted in dropped, and its children become roots).
func (r *spanRec) add(name string, id int64, parent int32, start, end int64) int32 {
	if len(r.spans) >= maxSpansPerRec {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	return int32(len(r.spans) - 1)
}

// spanStat aggregates one span name: count, total duration and total self
// time (duration minus the time its child spans cover).
type spanStat struct {
	name        string
	count       int64
	total, self time.Duration
}

// selfTimes aggregates every recorder's spans by name. Children of a span
// never overlap each other, so self time is the duration minus the sum of
// the children's durations.
func selfTimes(recs []*spanRec) []spanStat {
	by := map[string]*spanStat{}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			st := by[s.name]
			if st == nil {
				st = &spanStat{name: s.name}
				by[s.name] = st
			}
			d := s.end - s.start
			st.count++
			st.total += time.Duration(d)
			st.self += time.Duration(d - child[i])
		}
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeSpans writes every span as tab-separated text, gzip-compressed:
// recorder, index, parent, name, id, start_ns, end_ns.
func writeSpans(path string, recs []*spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "recorder\tindex\tparent\tname\tid\tstart_ns\tend_ns")
	for _, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%d\n", r.who, i, s.parent, s.name, s.id, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
