package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"splidt/internal/controller"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/flow"
	"splidt/internal/pkt"
	"splidt/internal/trace"
)

// fault is a deliberate output corruption that the benchmark's own tests
// inject to show that every check trips. The command never sets one.
type fault int

const (
	faultNone         fault = iota
	faultDropDigest         // the digest consumer loses one digest
	faultCorruptClass       // one digest reaches the consumer with a wrong class
	faultLosePacket         // a feeder counts one packet as offered but never feeds it
)

type options struct {
	seconds      time.Duration
	traced       bool
	fault        fault
	setupRepeats int
	// spanPath is where a traced run writes its spans ("" = not written).
	spanPath string
}

// run is one workload run in progress: the rig, its feeders and its digest
// consumer, and the clock every recorded time is relative to.
type run struct {
	r      *rig
	opt    options
	origin time.Time // schedule origin of the paced workloads: warm-up start

	stop    atomic.Bool
	tracing atomic.Bool

	// wins holds each measured window's bounds (ns since origin): index 0
	// is the untraced window, 1 the traced one. Unstarted bounds read as
	// empty; a running window's end reads as the far future.
	wins [2]struct{ start, end atomic.Int64 }

	feeders []*feeder
	cons    *consumer
	// redeployRec holds the redeploy span (written by the redeploy
	// goroutine only).
	redeployRec *spanRec
}

// now is nanoseconds since the run's origin.
func (r *run) now() int64 { return int64(time.Since(r.origin)) }

// due is the scheduled offer time of a paced packet with timestamp ts.
func (r *run) due(ts time.Duration) int64 {
	return int64(float64(ts-r.r.sp.preroll) / r.r.sp.compression)
}

// windowOf is the index of the measured window a due time falls in, or -1.
func (r *run) windowOf(due int64) int {
	for k := range r.wins {
		if due >= r.wins[k].start.Load() && due < r.wins[k].end.Load() {
			return k
		}
	}
	return -1
}

type feeder struct {
	i   int
	run *run
	f   *engine.Feeder
	st  *stream
	err error

	offered    int64 // packets handed to FeedAll and accepted
	bursts     int64
	tracedPkts int64 // packets in bursts fed while tracing
	// lagMax is, per window, the latest a paced chunk's first packet was
	// offered after its due time.
	lagMax [2]int64
	rec    *spanRec

	// Closed loop only: offer times of window-end packets (the only ones
	// that can classify a flow), for the consumer to time digests from.
	offers  offerLog
	scratch []offerRec
}

// offerKey names a packet: a flow's packets have distinct timestamps.
type offerKey struct {
	key flow.Key
	ts  time.Duration
}

type offerRec struct {
	k  offerKey
	at int64
}

type offerLog struct {
	mu   sync.Mutex
	recs []offerRec
}

func (fd *feeder) loop() {
	buf := make([]pkt.Packet, chunk)
	if fd.run.r.sp.closed {
		fd.closedLoop(buf)
	} else {
		fd.pacedLoop(buf)
	}
}

// closedLoop offers the next chunk as soon as the previous one is
// accepted. A packet is due when its chunk is offered.
func (fd *feeder) closedLoop(buf []pkt.Packet) {
	r := fd.run
	parts := len(partitions)
	for !r.stop.Load() {
		traced := r.tracing.Load()
		t0 := r.now()
		for i := range buf {
			buf[i] = fd.st.next()
		}
		t1 := r.now()
		fd.scratch = fd.scratch[:0]
		for i := range buf {
			if buf[i].IsWindowEnd(parts) {
				fd.scratch = append(fd.scratch, offerRec{offerKey{buf[i].Key.Canonical(), buf[i].TS}, t1})
			}
		}
		fd.offers.mu.Lock()
		fd.offers.recs = append(fd.offers.recs, fd.scratch...)
		fd.offers.mu.Unlock()
		if !fd.feed(buf, traced, t0, t1) {
			return
		}
	}
}

// pacedLoop offers every packet at its due time: it collects whatever is
// due (at most one chunk per call), sleeps when nothing is, and never
// sheds — a late feeder offers its backlog as fast as it is accepted and
// records how late it ran.
func (fd *feeder) pacedLoop(buf []pkt.Packet) {
	r := fd.run
	for !r.stop.Load() {
		traced := r.tracing.Load()
		t0 := r.now()
		n := 0
		for n < len(buf) {
			p := fd.st.next()
			if r.due(p.TS) > t0 {
				fd.st.peek, fd.st.has = p, true
				break
			}
			buf[n] = p
			n++
		}
		if n == 0 {
			time.Sleep(time.Duration(r.due(fd.st.peek.TS) - t0))
			continue
		}
		t1 := r.now()
		due := r.due(buf[0].TS)
		if k := r.windowOf(due); k >= 0 && t1-due > fd.lagMax[k] {
			fd.lagMax[k] = t1 - due
		}
		if !fd.feed(buf[:n], traced, t0, t1) {
			return
		}
	}
}

// feed hands one chunk to the engine; t0 is when the chunk's generation
// began and t1 when it was offered.
func (fd *feeder) feed(b []pkt.Packet, traced bool, t0, t1 int64) bool {
	n := int64(len(b))
	if fd.run.opt.fault == faultLosePacket && fd.i == 0 && fd.bursts == 0 {
		b = b[1:]
	}
	if err := fd.f.FeedAll(b); err != nil {
		fd.err = fmt.Errorf("feeder %d: FeedAll: %w", fd.i, err)
		return false
	}
	fd.offered += n
	fd.bursts++
	if traced {
		t2 := fd.run.now()
		root := fd.rec.add(spanBurst, fd.bursts, -1, t0, t2)
		fd.rec.add(spanNext, fd.bursts, root, t0, t1)
		fd.rec.add(spanFeed, fd.bursts, root, t1, t2)
		fd.tracedPkts += n
	}
	return true
}

// consumer drains the digest stream: directly from Session.Digests, or as
// the policy and session of controller.Serve in control workloads.
type consumer struct {
	run *run
	rec *spanRec

	n      int64 // digests received
	fp     fingerprint
	lat    [2]*latHist // per window: due → receipt
	epochs map[uint64]int64
	// unmatched counts closed-loop digests whose classifying packet was
	// never logged as offered — impossible unless a digest is forged.
	unmatched int64

	// Closed loop: offer times pulled from the feeders' logs.
	offers    map[offerKey]int64
	spare     []offerRec
	lastPurge int64

	// Control loop.
	ctrl      *controller.Controller
	serveErr  error
	verdicts  [2]*latHist // per window: due → Session.Block returned
	cur       int32       // open digest span (-1 when not tracing)
	lastDue   int64
	policyRet int64
	blockSum  time.Duration
	blockN    int64
	evictSum  time.Duration
	evictN    int64
	recordSum time.Duration
}

func (c *consumer) drain(sess *engine.Session) {
	for d := range sess.Digests() {
		now := c.run.now()
		c.n++
		switch {
		case c.run.opt.fault == faultDropDigest && c.n == 1:
			continue
		case c.run.opt.fault == faultCorruptClass && c.n == 1:
			d.Class = (d.Class + 1) % trace.NumClasses(dataset)
		}
		c.fp.add(d)
		c.epochs[d.Epoch]++
		due, ok := c.dueOf(d, now)
		if !ok {
			c.unmatched++
			continue
		}
		if k := c.run.windowOf(due); k >= 0 {
			c.lat[k].add(now - due)
		}
		if c.run.tracing.Load() {
			c.rec.add(spanDigest, c.n, -1, due, now)
		}
	}
}

// dueOf returns the due time of the digest's classifying packet.
func (c *consumer) dueOf(d dataplane.Digest, now int64) (int64, bool) {
	if !c.run.r.sp.closed {
		return c.run.due(d.At), true
	}
	k := offerKey{d.Key, d.At}
	at, ok := c.offers[k]
	if !ok {
		c.pullOffers(now)
		at, ok = c.offers[k]
	}
	delete(c.offers, k)
	return at, ok
}

// offerHorizon is how long an offered window-end packet is remembered;
// most window ends are subtree transitions that never produce a digest.
const offerHorizon = int64(5 * time.Second)

func (c *consumer) pullOffers(now int64) {
	for _, fd := range c.run.feeders {
		fd.offers.mu.Lock()
		recs := fd.offers.recs
		fd.offers.recs = c.spare[:0]
		fd.offers.mu.Unlock()
		for _, o := range recs {
			c.offers[o.k] = o.at
		}
		c.spare = recs[:0]
	}
	if now-c.lastPurge > int64(time.Second) {
		for k, at := range c.offers {
			if now-at > offerHorizon {
				delete(c.offers, k)
			}
		}
		c.lastPurge = now
	}
}

// blockOneInFive is the control workload's policy verdict: block a fifth of
// the classified flows, chosen by key hash.
func blockOneInFive(k flow.Key) controller.Action {
	if k.Hash()%5 == 0 {
		return controller.ActionBlock
	}
	return controller.ActionAllow
}

// policy is the controller policy of control workloads; it stamps the
// receipt of each digest.
func (c *consumer) policy(d dataplane.Digest) controller.Action {
	now := c.run.now()
	c.n++
	c.epochs[d.Epoch]++
	due := c.run.due(d.At)
	if k := c.run.windowOf(due); k >= 0 {
		c.lat[k].add(now - due)
	}
	c.lastDue = due
	c.cur = -1
	if c.run.tracing.Load() {
		c.cur = c.rec.add(spanDigest, c.n, -1, due, now)
	}
	act := blockOneInFive(d.Key)
	c.policyRet = c.run.now()
	return act
}

// servedSession is the session controller.Serve drives in control
// workloads: the engine session with its Block and Evict calls timed.
type servedSession struct {
	*engine.Session
	c *consumer
}

// Digests drops the stream's first digest under faultDropDigest.
func (s *servedSession) Digests() <-chan dataplane.Digest {
	in := s.Session.Digests()
	if s.c.run.opt.fault != faultDropDigest {
		return in
	}
	out := make(chan dataplane.Digest)
	go func() {
		defer close(out)
		first := true
		for d := range in {
			if first {
				first = false
				continue
			}
			out <- d
		}
	}()
	return out
}

func (s *servedSession) Block(k flow.Key) {
	c := s.c
	t0 := c.run.now()
	s.Session.Block(k)
	t1 := c.run.now()
	if k := c.run.windowOf(c.lastDue); k >= 0 {
		c.verdicts[k].add(t1 - c.lastDue)
	}
	if c.cur >= 0 {
		c.rec.add(spanRecord, c.n, c.cur, c.policyRet, t0)
		c.rec.add(spanBlock, c.n, c.cur, t0, t1)
		c.recordSum += time.Duration(t0 - c.policyRet)
		c.blockSum += time.Duration(t1 - t0)
		c.blockN++
	}
}

func (s *servedSession) Evict(k flow.Key) {
	c := s.c
	t0 := c.run.now()
	s.Session.Evict(k)
	t1 := c.run.now()
	if c.cur >= 0 {
		c.rec.add(spanEvict, c.n, c.cur, t0, t1)
		c.rec.spans[c.cur].end = t1
		c.evictSum += time.Duration(t1 - t0)
		c.evictN++
	}
}

// window is one measured interval of a run.
type window struct {
	k            int // index into run.wins
	start, end   int64
	snap0, snap1 engine.Snapshot
	cpu          time.Duration
	rt0, rt1     rtSample
	heapPeak     uint64

	backlogSum, backlogN, backlogMax int
	goroutines                       int
	ctrlFlows                        int // controller records at window end

	redeployed  bool
	redeploy    time.Duration
	epoch       uint64
	redeployErr error
}

func (w *window) seconds() float64 { return float64(w.end-w.start) / 1e9 }

// packets is how many packets the engine processed in the window.
func (w *window) packets() int64 { return int64(w.snap1.Stats.Packets - w.snap0.Stats.Packets) }

// measure runs one window of length d. A traced window records spans and
// samples shard backlogs; redeploy lands one Session.Redeploy halfway.
func (r *run) measure(k int, d time.Duration, traced, redeploy bool) *window {
	sess := r.r.sess
	hs := newHeapSampler()
	w := &window{k: k}
	w.goroutines = runtime.NumGoroutine() - r.r.goroutinesBefore - numFeeders - 1
	w.rt0 = readRuntime()
	cpu0 := processCPU()
	w.snap0 = sess.Snapshot()
	w.start = r.now()
	r.wins[k].start.Store(w.start)
	r.tracing.Store(traced)

	var redeployed chan struct{}
	if redeploy {
		redeployed = make(chan struct{})
		go func() {
			defer close(redeployed)
			time.Sleep(d / 2)
			t0 := r.now()
			w.epoch, w.redeployErr = sess.Redeploy(r.r.model2, r.r.compiled2)
			t1 := r.now()
			w.redeployed, w.redeploy = true, time.Duration(t1-t0)
			if traced {
				r.redeployRec.add(spanRedeploy, int64(w.epoch), -1, t0, t1)
			}
		}()
	}
	end := w.start + int64(d)
	for r.now() < end {
		time.Sleep(time.Millisecond)
		if h := hs.read(); h > w.heapPeak {
			w.heapPeak = h
		}
		if traced {
			for _, sh := range sess.Health().Shards {
				w.backlogSum += sh.Backlog
				w.backlogN++
				if sh.Backlog > w.backlogMax {
					w.backlogMax = sh.Backlog
				}
			}
		}
	}
	w.end = r.now()
	r.wins[k].end.Store(w.end)
	w.snap1 = sess.Snapshot()
	if r.cons.ctrl != nil {
		w.ctrlFlows = r.cons.ctrl.Flows()
	}
	w.cpu = processCPU() - cpu0
	w.rt1 = readRuntime()
	r.tracing.Store(false)
	if redeployed != nil {
		<-redeployed
	}
	return w
}

// outcome is everything a finished run hands to the checks and the report.
type outcome struct {
	setups   []setupTimes
	untraced *window
	traced   *window // nil unless options.traced
	final    engine.Snapshot
	health   engine.Health
	result   *engine.Result
	closeErr error
	feedErrs []error
	offered  []int64
	cons     *consumer
	feeders  []*feeder
	recs     []*spanRec
	rig      *rig
}

// execute sets the workload up, warms it, measures its window(s), stops
// the feeders and closes the session. It returns an error only when the
// run could not be carried out at all; output checks come after.
func execute(sp spec, seed int64, opt options) (*outcome, error) {
	if opt.setupRepeats <= 0 {
		opt.setupRepeats = setupRepeats
	}
	rg, setups, err := setup(sp, seed, opt.setupRepeats)
	if err != nil {
		return nil, err
	}
	preroll(sp, rg.streams)

	r := &run{r: rg, opt: opt, redeployRec: &spanRec{who: "redeploy"}}
	for k := range r.wins {
		r.wins[k].start.Store(math.MaxInt64)
		r.wins[k].end.Store(math.MaxInt64)
	}
	r.cons = &consumer{
		run:      r,
		rec:      &spanRec{who: "consumer"},
		lat:      [2]*latHist{newLatHist(), newLatHist()},
		verdicts: [2]*latHist{newLatHist(), newLatHist()},
		epochs:   map[uint64]int64{},
		offers:   map[offerKey]int64{},
		cur:      -1,
	}
	for i, st := range rg.streams {
		f, err := rg.sess.NewFeeder()
		if err != nil {
			rg.sess.Close()
			return nil, fmt.Errorf("Session.NewFeeder: %w", err)
		}
		r.feeders = append(r.feeders, &feeder{
			i: i, run: r, f: f, st: st,
			rec: &spanRec{who: fmt.Sprintf("feeder%d", i)},
		})
	}

	// The origin is the warm-up start: the paced schedule's time zero.
	r.origin = time.Now()
	consumed := make(chan struct{})
	if sp.control {
		r.cons.ctrl = controller.New(trace.NumClasses(dataset), r.cons.policy)
		go func() {
			defer close(consumed)
			_, r.cons.serveErr = r.cons.ctrl.Serve(&servedSession{Session: rg.sess, c: r.cons})
		}()
	} else {
		go func() {
			defer close(consumed)
			r.cons.drain(rg.sess)
		}()
	}

	var wg sync.WaitGroup
	for _, fd := range r.feeders {
		wg.Add(1)
		go func(fd *feeder) {
			defer wg.Done()
			fd.loop()
		}(fd)
	}
	time.Sleep(sp.warmup)
	out := &outcome{setups: setups, cons: r.cons, feeders: r.feeders}
	out.untraced = r.measure(0, opt.seconds, false, sp.control && !opt.traced)
	if opt.traced {
		out.traced = r.measure(1, opt.seconds, true, sp.control)
	}
	r.stop.Store(true)
	wg.Wait()
	out.result, out.closeErr = rg.sess.Close()
	<-consumed
	out.final = rg.sess.Snapshot()
	out.health = rg.sess.Health()
	for _, fd := range r.feeders {
		out.offered = append(out.offered, fd.offered)
		if fd.err != nil {
			out.feedErrs = append(out.feedErrs, fd.err)
		}
		out.recs = append(out.recs, fd.rec)
	}
	out.recs = append(out.recs, r.cons.rec, r.redeployRec)
	out.rig = rg
	return out, nil
}
