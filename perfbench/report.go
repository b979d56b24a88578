package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the command's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd computes the end-to-end metrics from the untraced window.
// Digest latency is a per-layer metric (engine.digest_*): on the 2-CPU
// reference host its run-to-run spread is too wide to bound.
func endToEnd(out *outcome) metricSet {
	w := out.untraced
	m := metricSet{}
	m.set("setup_s", medianSetup(out.setups, setupTimes.total).Seconds(), "s")
	pkts := float64(w.packets())
	m.set("pps", pkts/w.seconds(), "1/s")
	m.set("cpu_us_per_pkt", w.cpu.Seconds()*1e6/pkts, "us")
	m.set("heap_peak_mb", float64(w.heapPeak)/(1<<20), "MB")
	return m
}

// perLayer computes the per-layer metrics: spans and engine counters from
// the traced window, runtime counters and the digest tail from the
// untraced window of the same run (tracing allocates), set-up spans, and
// the ladder.
func perLayer(out *outcome, l ladderResult) metricSet {
	w, tw := out.untraced, out.traced
	m := metricSet{}
	tpkts := float64(tw.packets())

	var traced int64
	for _, fd := range out.feeders {
		traced += fd.tracedPkts
	}
	stats := map[string]spanStat{}
	for _, st := range selfTimes(out.recs) {
		stats[st.name] = st
	}
	perTraced := func(name string) float64 {
		if traced == 0 {
			return 0
		}
		return float64(stats[name].total.Nanoseconds()) / float64(traced)
	}
	nextNS := perTraced(spanNext)
	m.set("loadgen.next_ns", nextNS, "ns")
	m.set("engine.feed_ns", perTraced(spanFeed), "ns")

	var lag int64
	for _, fd := range out.feeders {
		lag = max(lag, fd.lagMax[tw.k])
	}
	m.set("loadgen.lag_ms", float64(lag)/1e6, "ms")
	m.set("engine.backpressure_per_kpkt", 1000*float64(tw.snap1.Backpressure-tw.snap0.Backpressure)/tpkts, "1/kpkt")
	mean := 0.0
	if tw.backlogN > 0 {
		mean = float64(tw.backlogSum) / float64(tw.backlogN)
	}
	m.set("engine.ring_backlog_mean", mean, "bursts")
	m.set("engine.ring_backlog_max", float64(tw.backlogMax), "bursts")
	m.set("engine.goroutines", float64(tw.goroutines), "count")

	lat := out.cons.lat[w.k]
	m.set("engine.digest_p50_ms", lat.quantile(0.50), "ms")
	m.set("engine.digest_p99_ms", lat.quantile(0.99), "ms")
	m.set("engine.digest_tail_ms", lat.quantile(tailQuantile(lat.n)), "ms")
	m.set("engine.digest_samples", float64(lat.n), "count")

	c := out.cons
	avg := func(sum time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum.Nanoseconds()) / float64(n)
	}
	m.set("engine.block_ns", avg(c.blockSum, c.blockN), "ns")
	m.set("engine.evict_ns", avg(c.evictSum, c.evictN), "ns")
	m.set("controller.record_ns", avg(c.recordSum, c.blockN), "ns")
	m.set("controller.verdict_p50_ms", c.verdicts[tw.k].quantile(0.50), "ms")
	m.set("controller.verdict_p99_ms", c.verdicts[tw.k].quantile(0.99), "ms")
	m.set("engine.redeploy_ms", ms(tw.redeploy), "ms")
	m.set("engine.blocked_flows", float64(tw.snap1.BlockedFlows), "count")
	m.set("controller.flows", float64(tw.ctrlFlows), "count")

	d := tw.snap1.Stats
	d0 := tw.snap0.Stats
	perK := func(a, b int) float64 { return 1000 * float64(a-b) / tpkts }
	m.set("dataplane.digests_per_kpkt", perK(d.Digests, d0.Digests), "1/kpkt")
	m.set("dataplane.recirc_per_kpkt", perK(d.ControlPackets, d0.ControlPackets), "1/kpkt")
	m.set("dataplane.evictions_per_kpkt", perK(d.Evictions, d0.Evictions), "1/kpkt")
	m.set("dataplane.kicks_per_kpkt", perK(d.Kicks, d0.Kicks), "1/kpkt")
	m.set("dataplane.stash_inserts", float64(d.StashInserts-d0.StashInserts), "count")
	m.set("dataplane.wheel_expiries", float64(d.WheelExpiries-d0.WheelExpiries), "count")
	m.set("dataplane.rejects", float64(d.Collisions-d0.Collisions), "count")

	upkts := float64(w.packets())
	m.set("runtime.allocs_per_pkt", float64(w.rt1.allocObjects-w.rt0.allocObjects)/upkts, "allocs/pkt")
	m.set("runtime.alloc_bytes_per_pkt", float64(w.rt1.allocBytes-w.rt0.allocBytes)/upkts, "B/pkt")
	share := 0.0
	if cpu := w.rt1.totalCPU - w.rt0.totalCPU; cpu > 0 {
		share = (w.rt1.gcCPU - w.rt0.gcCPU) / cpu
	}
	m.set("runtime.gc_cpu_share", share, "ratio")
	m.set("runtime.sched_p99_us", 1e6*schedQuantile(w.rt0.sched, w.rt1.sched, 0.99), "us")

	m.set("core.train_s", medianSetup(out.setups, func(t setupTimes) time.Duration { return t.train }).Seconds(), "s")
	m.set("rangemark.compile_s", medianSetup(out.setups, func(t setupTimes) time.Duration { return t.compile }).Seconds(), "s")
	m.set("engine.new_s", medianSetup(out.setups, func(t setupTimes) time.Duration { return t.engineNew }).Seconds(), "s")
	m.set("loadgen.new_s", medianSetup(out.setups, func(t setupTimes) time.Duration { return t.loadgenNew }).Seconds(), "s")
	m.set("engine.start_s", medianSetup(out.setups, func(t setupTimes) time.Duration { return t.start }).Seconds(), "s")

	m.set("flow.hash_ns", l.hash, "ns")
	m.set("flowtable.cuckoo_acquire_ns", l.cuckoo, "ns")
	m.set("flowtable.direct_acquire_ns", l.direct, "ns")
	m.set("features.update_ns", l.update, "ns")
	m.set("features.snapshot_ns", l.snapshot, "ns")
	m.set("rangemark.marks_ns", l.marks, "ns")
	m.set("rangemark.lookup_ns", l.lookup, "ns")
	m.set("dataplane.windows_per_kpkt", 1000*l.windowsPerPkt(), "1/kpkt")
	m.set("dataplane.process_ns", l.process, "ns")
	m.set("dataplane.unattributed_ns", l.process-l.rungSum(), "ns")
	cpuNS := w.cpu.Seconds() * 1e9 / upkts
	m.set("engine.overhead_ns", cpuNS-nextNS-l.process, "ns")

	upps := upkts / w.seconds()
	tpps := tpkts / tw.seconds()
	m.set("trace.pps_ratio", tpps/upps, "ratio")
	m.set("trace.cpu_ratio", (tw.cpu.Seconds()/tpkts)/(w.cpu.Seconds()/upkts), "ratio")
	return m
}

// reconcile prints the ladder against the pipeline and the engine, the
// span self times, and the tracing overhead.
func reconcile(wr io.Writer, out *outcome, l ladderResult, lm metricSet) {
	p := func(format string, args ...any) { fmt.Fprintf(wr, "# "+format+"\n", args...) }
	p("reconciliation (shard-0 stream, %d timed packets, %d window ends)", l.pkts, l.windows)
	p("  flow.hash                   %8.1f ns/pkt  (inside the acquire rung: the table hashes the key itself)", l.hash)
	p("  flowtable.cuckoo_acquire    %8.1f ns/pkt", l.cuckoo)
	p("  features.update             %8.1f ns/pkt", l.update)
	wpp := l.windowsPerPkt()
	p("  window ends                 %8.1f ns/pkt  = %.4f windows/pkt x (snapshot %.1f + marks %.1f + lookup %.1f) ns",
		wpp*(l.snapshot+l.marks+l.lookup), wpp, l.snapshot, l.marks, l.lookup)
	p("  sum of rungs                %8.1f ns/pkt", l.rungSum())
	p("  dataplane.process           %8.1f ns/pkt", l.process)
	p("  unattributed                %8.1f ns/pkt  (%.1f%% of process)", l.process-l.rungSum(), 100*(l.process-l.rungSum())/l.process)
	w := out.untraced
	cpu := w.cpu.Seconds() * 1e9 / float64(w.packets())
	next := lm["loadgen.next_ns"].Value
	p("  engine CPU (all goroutines) %8.1f ns/pkt  = loadgen.next %.1f + dataplane.process %.1f + overhead %.1f",
		cpu, next, l.process, cpu-next-l.process)
	p("tracing overhead: traced pps / untraced pps = %.4f, traced CPU/pkt / untraced = %.4f",
		lm["trace.pps_ratio"].Value, lm["trace.cpu_ratio"].Value)
	p("span self times (traced window):")
	for _, st := range selfTimes(out.recs) {
		p("  %-18s n=%-9d mean %10.1f us  self %10.1f us", st.name, st.count,
			float64(st.total.Nanoseconds())/float64(st.count)/1e3, float64(st.self.Nanoseconds())/float64(st.count)/1e3)
	}
	var dropped int64
	for _, r := range out.recs {
		dropped += r.dropped
	}
	if dropped > 0 {
		p("spans dropped (log full): %d", dropped)
	}
}

// provenance prints the header every result carries: host, toolchain,
// source and run parameters.
func provenance(wr io.Writer, sp spec, seed int64, seconds int, traced bool) {
	commit, tree := sourceIdentity()
	fmt.Fprintf(wr, "# splidt perfbench\n")
	fmt.Fprintf(wr, "# host nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Fprintf(wr, "# source commit=%s tree_sha256=%s\n", commit, tree)
	fmt.Fprintf(wr, "# run seed=%d seconds=%d trace=%t\n", seed, seconds, traced)
	fmt.Fprintf(wr, "# params %s\n", sp.params())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceIdentity names the code under test: the git commit when the
// checkout has one, and always a digest of go.mod and every .go file
// (paths and contents) below the working directory.
func sourceIdentity() (commit, tree string) {
	commit = "none"
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				commit = strings.TrimSpace(string(b))
			} else if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if h, r, ok := strings.Cut(line, " "); ok && r == name {
						commit = h
					}
				}
			}
		} else {
			commit = ref
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// emit prints each metric as a readable line, then the result as
// the last line of output.
func emit(wr io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(wr, "# %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(res); err != nil {
		return err
	}
	_, err := wr.Write(b.Bytes())
	return err
}

// finite replaces non-finite values (which JSON cannot carry) by 0 and
// reports their names.
func finite(m metricSet) []string {
	var bad []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
			m[k] = metric{Value: 0, Unit: v.Unit}
		}
	}
	sort.Strings(bad)
	return bad
}
