package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

// deployCfg trains and compiles a small model once (the same fixture shape
// the engine and loadgen tests use) and re-slices it per call.
var (
	deployOnce sync.Once
	deployBase dataplane.Config
)

func deployCfg(t testing.TB, slots int) dataplane.Config {
	t.Helper()
	deployOnce.Do(func() {
		flows := trace.Generate(trace.D3, 400, 33)
		samples := trace.BuildSamples(flows, 3)
		train, _ := trace.Split(samples, 0.7)
		m, err := core.Train(train, core.Config{
			Partitions: []int{3, 2, 2}, FeaturesPerSubtree: 4, NumClasses: 13,
		})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		c, err := rangemark.Compile(m)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		deployBase = dataplane.Config{Profile: resources.Tofino1(), Model: m, Compiled: c}
	})
	cfg := deployBase
	cfg.FlowSlots = slots
	return cfg
}

func testPackets(t testing.TB, flows int) []pkt.Packet {
	t.Helper()
	return trace.Interleave(trace.Generate(trace.D3, flows, 7), 100*time.Microsecond)
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// settle waits until the session has accounted for every fed packet
// (processed, dropped, quarantine-drained, or discarded) and no shard reads
// degraded. Under CPU contention the watchdog can flag a shard degraded
// while its ring is still backed up; the counts may balance before the
// watchdog's next tick observes the progress and flips it back to running.
// Quarantine is terminal, so a quarantined shard does not hold settle up.
func settle(t *testing.T, s *engine.Session) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Snapshot()
		balanced := int64(snap.Stats.Packets)+snap.Dropped+snap.QuarantineDropped+snap.DiscardedStaged == snap.Fed
		degraded := false
		for _, sh := range s.Health().Shards {
			degraded = degraded || sh.State == engine.ShardDegraded
		}
		if balanced && !degraded {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session did not settle (degraded shard: %v): %+v", degraded, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMetricsLiveSession(t *testing.T) {
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, 1<<16), Shards: 2, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := e.Start(context.Background(), engine.WithDigestLatency())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := startServer(t, Config{Engine: e, Session: sess})

	if err := sess.FeedAll(testPackets(t, 300)); err != nil {
		t.Fatal(err)
	}
	settle(t, sess)

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE splidt_packets_total counter",
		`splidt_packets_total{shard="0"} `,
		`splidt_packets_total{shard="1"} `,
		`splidt_packets_total{shard="all"} `,
		`splidt_wheel_cascades_total{shard="all",level="1"} `,
		"splidt_shards 2\n",
		"splidt_up 1\n",
		`splidt_shard_state{shard="0"} 0`,
		`splidt_shard_epoch{shard="1"} 0`,
		"splidt_active_flows ",
		"splidt_fed_packets_total ",
		"# TYPE splidt_digest_latency_seconds histogram",
		`splidt_digest_latency_seconds_bucket{le="+Inf"} `,
		`splidt_digest_latency_quantile_seconds{quantile="0.99"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The per-shard packet counts must sum to the shard="all" merge.
	re := regexp.MustCompile(`splidt_packets_total\{shard="(\w+)"\} (\d+)`)
	sum, all := 0, -1
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		n := 0
		for _, ch := range m[2] {
			n = n*10 + int(ch-'0')
		}
		if m[1] == "all" {
			all = n
		} else {
			sum += n
		}
	}
	if all < 0 || sum != all {
		t.Errorf("per-shard packets sum %d != shard=all %d", sum, all)
	}

	// Every non-comment line must parse as `name{labels} value`.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestHealthzLifecycle(t *testing.T) {
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, 1<<16), Shards: 2, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Engine: e})

	// No session bound yet: 503, status no-session.
	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"no-session"`) {
		t.Fatalf("unbound healthz = %d %q", code, body)
	}

	sess, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv.SetSession(sess)

	code, body = get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy healthz = %d %q", code, body)
	}
	var resp struct {
		Status string `json:"status"`
		Shards []struct {
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if resp.Status != "ok" || len(resp.Shards) != 2 || resp.Shards[0].State != "running" {
		t.Fatalf("healthz body: %+v", resp)
	}
}

// TestHealthzQuarantine injects a worker panic and pins that /healthz flips
// to 503 with the quarantined shard and fault visible, /metrics reports
// splidt_up 0 and the shard state gauge, and /flightrecorder ships the
// shard's last events ending in the quarantine record.
func TestHealthzQuarantine(t *testing.T) {
	const panicShard = 1
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, 1<<16), Shards: 2, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	hooks := &engine.TestHooks{BeforePacket: func(shard int, _ *pkt.Packet) {
		if shard == panicShard && hits.Add(1) == 20 {
			panic("telemetry test fault")
		}
	}}
	sess, err := e.Start(context.Background(), engine.WithTestHooks(hooks))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := startServer(t, Config{Engine: e, Session: sess})

	if err := sess.FeedAll(testPackets(t, 300)); err != nil {
		t.Fatal(err)
	}
	settle(t, sess)

	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined healthz status = %d", code)
	}
	for _, want := range []string{`"degraded"`, `"quarantined"`, "panicked", "telemetry test fault"} {
		if !strings.Contains(body, want) {
			t.Errorf("quarantined healthz missing %q: %s", want, body)
		}
	}

	_, metricsBody := get(t, "http://"+srv.Addr()+"/metrics")
	for _, want := range []string{
		"splidt_up 0\n",
		`splidt_shard_state{shard="1"} 2`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q after quarantine", want)
		}
	}

	code, frBody := get(t, "http://"+srv.Addr()+"/flightrecorder?shard=1")
	if code != http.StatusOK {
		t.Fatalf("/flightrecorder status %d", code)
	}
	var fr struct {
		Shard  int `json:"shard"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(frBody), &fr); err != nil {
		t.Fatalf("flightrecorder JSON: %v", err)
	}
	if len(fr.Events) == 0 {
		t.Fatal("flight recorder empty after quarantine")
	}
	if last := fr.Events[len(fr.Events)-1].Kind; last != "quarantine" {
		t.Errorf("last event kind %q, want quarantine", last)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, 1<<16), Shards: 2, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := startServer(t, Config{Engine: e, Session: sess})

	if err := sess.FeedAll(testPackets(t, 100)); err != nil {
		t.Fatal(err)
	}
	settle(t, sess)

	if code, _ := get(t, "http://"+srv.Addr()+"/flightrecorder?shard=9"); code != http.StatusBadRequest {
		t.Errorf("out-of-range shard status = %d, want 400", code)
	}
	code, body := get(t, "http://"+srv.Addr()+"/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("/flightrecorder status %d", code)
	}
	var all struct {
		Shards []struct {
			Events []struct {
				Kind string `json:"kind"`
				Seq  uint64 `json:"seq"`
			} `json:"events"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if len(all.Shards) != 2 {
		t.Fatalf("dump has %d shards", len(all.Shards))
	}
	sawBurst := false
	for _, sh := range all.Shards {
		for _, ev := range sh.Events {
			if ev.Kind == "burst-start" || ev.Kind == "burst-end" {
				sawBurst = true
			}
		}
	}
	if !sawBurst {
		t.Error("no burst events recorded after traffic")
	}
}

func TestSamplerSeries(t *testing.T) {
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, 1<<16), Shards: 2, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := e.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := startServer(t, Config{
		Engine: e, Session: sess, SampleInterval: 5 * time.Millisecond, SeriesDepth: 16,
	})

	if err := sess.FeedAll(testPackets(t, 200)); err != nil {
		t.Fatal(err)
	}
	settle(t, sess)

	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Series()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler produced no samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	samples := srv.Series()
	if len(samples) > 16 {
		t.Fatalf("series exceeds depth: %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At.Before(samples[i-1].At) {
			t.Fatal("series out of order")
		}
	}

	code, body := get(t, "http://"+srv.Addr()+"/series")
	if code != http.StatusOK {
		t.Fatalf("/series status %d", code)
	}
	var ser struct {
		IntervalNS int64    `json:"interval_ns"`
		Samples    []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &ser); err != nil {
		t.Fatalf("/series JSON: %v", err)
	}
	if ser.IntervalNS != int64(5*time.Millisecond) || len(ser.Samples) == 0 {
		t.Fatalf("/series body: interval %d, %d samples", ser.IntervalNS, len(ser.Samples))
	}

	_, metricsBody := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(metricsBody, "splidt_pkts_per_second ") {
		t.Error("/metrics missing sampler rate gauges")
	}
}

func TestPprofMounted(t *testing.T) {
	e, err := engine.New(engine.Config{Deploy: deployCfg(t, 1<<16), Shards: 1, Burst: 16, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Engine: e})
	code, body := get(t, "http://"+srv.Addr()+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof cmdline = %d, %d bytes", code, len(body))
	}
}
