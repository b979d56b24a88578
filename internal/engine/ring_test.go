package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splidt/internal/pkt"
)

func TestRingFIFO(t *testing.T) {
	r := newRing(4)
	if len(r.buf) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.buf))
	}
	bursts := []*burst{{}, {}, {}, {}}
	for _, b := range bursts {
		if !r.tryPush(b) {
			t.Fatal("push into non-full ring failed")
		}
	}
	if r.tryPush(&burst{}) {
		t.Fatal("push into full ring succeeded")
	}
	for i, want := range bursts {
		got, ok := r.tryPop()
		if !ok || got != want {
			t.Fatalf("pop %d: got %p, want %p", i, got, want)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}} {
		if r := newRing(tc.ask); len(r.buf) != tc.want {
			t.Errorf("newRing(%d) capacity %d, want %d", tc.ask, len(r.buf), tc.want)
		}
	}
}

func TestMPSCRingFIFO(t *testing.T) {
	r := newMPSCRing(4)
	if len(r.slots) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.slots))
	}
	bursts := []*burst{{}, {}, {}, {}}
	for _, b := range bursts {
		if !r.tryPush(b) {
			t.Fatal("push into non-full ring failed")
		}
	}
	if r.tryPush(&burst{}) {
		t.Fatal("push into full ring succeeded")
	}
	for i, want := range bursts {
		got, ok := r.tryPop()
		if !ok || got != want {
			t.Fatalf("pop %d: got %p, want %p", i, got, want)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	// The ring must keep working across laps (sequence numbers recycle).
	for lap := 0; lap < 3; lap++ {
		for _, b := range bursts {
			if !r.tryPush(b) {
				t.Fatalf("lap %d: push failed", lap)
			}
		}
		for i, want := range bursts {
			if got, ok := r.tryPop(); !ok || got != want {
				t.Fatalf("lap %d pop %d: got %p, want %p", lap, i, got, want)
			}
		}
	}
}

// TestRingMPSCStress drives several producers into one small MPSC ring and
// checks, under the race detector, that nothing is lost or duplicated and
// that each producer's bursts arrive in that producer's push order — the
// per-producer FIFO property multi-feeder dispatch relies on for per-flow
// packet order.
func TestRingMPSCStress(t *testing.T) {
	const (
		producers = 4
		perProd   = 5_000
	)
	r := newMPSCRing(8)
	var wg sync.WaitGroup
	done := make(chan map[int]int, 1)
	go func() {
		next := make(map[int]int, producers) // producer → next expected seq
		got := 0
		for got < producers*perProd {
			b, ok := r.tryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			prod, seq := b.pkts[0].Seq, b.pkts[0].FlowSize
			if want := next[prod]; seq != want {
				t.Errorf("producer %d out of order: got %d, want %d", prod, seq, want)
				done <- nil
				return
			}
			next[prod]++
			got++
		}
		done <- next
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				r.push(&burst{pkts: []pkt.Packet{{Seq: p, FlowSize: i}}})
			}
		}(p)
	}
	wg.Wait()
	next := <-done
	for p := 0; p < producers; p++ {
		if next[p] != perProd {
			t.Fatalf("producer %d: consumer saw %d bursts, want %d", p, next[p], perProd)
		}
	}
}

// TestRingSPSCStress moves a long tagged sequence through a small ring with
// one producer and one consumer; ordering and completeness must hold under
// the race detector.
func TestRingSPSCStress(t *testing.T) {
	const n = 20_000
	r := newRing(8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 0
		for next < n {
			b, ok := r.tryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if got := b.pkts[0].Seq; got != next {
				t.Errorf("out of order: got %d, want %d", got, next)
				return
			}
			next++
		}
	}()
	for i := 0; i < n; i++ {
		r.push(&burst{pkts: []pkt.Packet{{Seq: i}}})
	}
	wg.Wait()
}

// TestRingParkWakeStress hunts lost wakeups in the parked hand-off. Several
// producers with random pauses push into a 2-slot ring whose consumer parks
// whenever it finds the ring empty; each producer blocks in awaitRecycle
// whenever the ring is full or its own 2-burst free ring is empty. Every
// burst must arrive, in per-producer order, before the deadline: a lost
// wake leaves the consumer or a producer asleep with work pending.
func TestRingParkWakeStress(t *testing.T) {
	const (
		producers = 4
		perProd   = 3_000
	)
	r := newMPSCRing(2)
	stop := make(chan struct{})
	var quit atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		free := newRing(2)
		for i := 0; i < 2; i++ {
			free.push(&burst{pkts: make([]pkt.Packet, 1), home: free})
		}
		wg.Add(1)
		go func(p int, free *spscRing) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProd; i++ {
				b, ok := free.tryPop()
				for !ok {
					if quit.Load() {
						return
					}
					r.awaitRecycle(free, stop)
					b, ok = free.tryPop()
				}
				b.pkts[0] = pkt.Packet{Seq: p, FlowSize: i}
				for !r.tryPush(b) {
					if quit.Load() {
						return
					}
					r.awaitRecycle(nil, stop)
				}
				if rng.Intn(32) == 0 {
					time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
				}
			}
		}(p, free)
	}

	consumed := make(chan int, 1)
	go func() {
		rng := rand.New(rand.NewSource(producers))
		busy := func() bool { return r.ready() || quit.Load() }
		next := make([]int, producers)
		got := 0
		for got < producers*perProd && !quit.Load() {
			b, ok := r.tryPop()
			if !ok {
				r.park(busy)
				continue
			}
			prod, seq := b.pkts[0].Seq, b.pkts[0].FlowSize
			if seq != next[prod] {
				t.Errorf("producer %d out of order: got %d, want %d", prod, seq, next[prod])
			}
			next[prod] = seq + 1
			got++
			b.home.push(b)
			r.recycled()
			if rng.Intn(32) == 0 {
				time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
			}
		}
		consumed <- got
	}()

	select {
	case got := <-consumed:
		if got != producers*perProd {
			t.Fatalf("consumer saw %d bursts, want %d", got, producers*perProd)
		}
		wg.Wait()
	case <-time.After(30 * time.Second):
		quit.Store(true)
		close(stop)
		r.wakeConsumer()
		t.Fatalf("hand-off stalled: lost wakeup (ring backlog %d, waiters %d, consumer parked %v)",
			r.backlog(), r.waiters.Load(), r.parked.Load())
	}
}
