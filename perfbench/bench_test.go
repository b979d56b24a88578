package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"splidt/internal/flow"
	"splidt/internal/pkt"
)

// tiny scales a workload down for tests: a small population and table, a
// low paced rate, a short warm-up and ladder, one set-up.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	sp, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	const shrink = 25
	if !sp.closed {
		virtRate := sp.rate / sp.compression * float64(sp.flows/shrink) / float64(sp.flows)
		sp.rate = 100_000
		sp.compression = sp.rate / virtRate
	}
	sp.flows /= shrink
	sp.slots /= 16
	sp.warmup = 200 * time.Millisecond
	sp.ladderPkts = 20_000
	return sp
}

func tinyOptions() options {
	return options{seconds: time.Second, setupRepeats: 1}
}

func runChecked(t *testing.T, sp spec, opt options) verdict {
	t.Helper()
	out, err := execute(sp, 7, opt)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return check(out)
}

func TestWorkloadsPassChecks(t *testing.T) {
	for _, sp := range workloads() {
		sp := tiny(t, sp.name)
		t.Run(sp.name, func(t *testing.T) {
			if v := runChecked(t, sp, tinyOptions()); !v.ok() {
				t.Fatalf("checks failed on an unmodified run: %v", v.failures)
			}
		})
	}
}

// TestChecksTrip corrupts one output at a time and expects the checks —
// and so the command's exit status — to fail.
func TestChecksTrip(t *testing.T) {
	cases := []struct {
		workload string
		fault    fault
		want     string
	}{
		{"paced_digest", faultDropDigest, "oracle"},
		{"paced_digest", faultCorruptClass, "oracle"},
		{"paced_digest", faultLosePacket, "conservation"},
		{"saturate", faultDropDigest, "oracle"},
		{"saturate", faultLosePacket, "conservation"},
		{"control_loop", faultDropDigest, "controller ingested"},
		{"control_loop", faultLosePacket, "conservation"},
	}
	for _, c := range cases {
		sp := tiny(t, c.workload)
		opt := tinyOptions()
		opt.fault = c.fault
		t.Run(c.workload+"/"+faultName(c.fault), func(t *testing.T) {
			res, err := benchmark(sp, 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("corrupted run passed its checks")
			}
			v := runChecked(t, sp, opt)
			if !strings.Contains(strings.Join(v.failures, "\n"), c.want) {
				t.Fatalf("no %q failure among %v", c.want, v.failures)
			}
		})
	}
}

func faultName(f fault) string {
	return map[fault]string{faultDropDigest: "drop-digest", faultCorruptClass: "corrupt-class", faultLosePacket: "lose-packet"}[f]
}

// streamFingerprint hashes the first n packets of every feeder's stream,
// in order: the same seed must reproduce it bit for bit.
func streamFingerprint(sp spec, seed int64, n int) (uint64, error) {
	streams, err := newStreams(sp, seed)
	if err != nil {
		return 0, err
	}
	preroll(sp, streams)
	var h uint64
	for _, st := range streams {
		for k := 0; k < n; k++ {
			h = flow.Mix64(h ^ packetHash(st.next()))
		}
	}
	return h, nil
}

func packetHash(p pkt.Packet) uint64 {
	h := uint64(p.Key.SrcIP)<<32 | uint64(p.Key.DstIP)
	h = flow.Mix64(h ^ (uint64(p.Key.SrcPort)<<24 | uint64(p.Key.DstPort)<<8 | uint64(p.Key.Proto)))
	h = flow.Mix64(h ^ uint64(p.TS))
	h = flow.Mix64(h ^ uint64(p.Len)<<16 ^ uint64(p.Flags))
	h = flow.Mix64(h ^ uint64(p.Seq)<<32 ^ uint64(p.FlowSize))
	return flow.Mix64(h ^ p.ShardHash)
}

func TestStreamFingerprintReproducible(t *testing.T) {
	for _, sp := range workloads() {
		sp := tiny(t, sp.name)
		a, err := streamFingerprint(sp, 3, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamFingerprint(sp, 3, 50_000)
		c, _ := streamFingerprint(sp, 4, 50_000)
		if a != b {
			t.Errorf("%s: seed 3 gave %016x then %016x", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same stream %016x", sp.name, a)
		}
	}
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names to the
// benchmark definition at the repository root: an untraced run prints
// exactly the end-to-end metrics, a traced run exactly the per-layer ones.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	sp := tiny(t, "control_loop")
	for _, traced := range []bool{false, true} {
		want := def.EndToEnd
		if traced {
			want = def.PerLayer
		}
		opt := tinyOptions()
		opt.traced = traced
		res, err := benchmark(sp, 7, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("traced=%t: checks failed", traced)
		}
		var got, exp []string
		for k, m := range res.Metrics {
			got = append(got, k+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("traced=%t: printed metrics\n%v\nBENCHMARK.json lists\n%v", traced, got, exp)
		}
	}
}

func TestCommandRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "saturate", "--trace", "2"},
		{"--workload", "saturate", "--seconds", "0"},
	} {
		if code := cli(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestLatHistQuantiles(t *testing.T) {
	h := newLatHist()
	for v := int64(1); v <= 1_000_000; v++ {
		h.add(v * 37) // 37 ns .. 37 ms, uniform
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 37
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.2f = %.4f ms, want %.4f ms within 0.5%%", q, got, want)
		}
	}
}
