package engine

// RingAllocProbe returns one steady-state transfer cycle over the burst
// rings — push+pop on an SPSC free ring and on an MPSC shard ring, a push
// that wakes a parked consumer, a recycle that wakes a blocked feeder, plus
// the per-burst pending-deployment poll — for the consolidated allocation
// test in internal/analysis, which pins every //splidt:hotpath function to
// zero allocations but cannot reach the unexported types from outside the
// package.
func RingAllocProbe() func() {
	sp := newRing(4)
	mp := newMPSCRing(4)
	b := &burst{}
	sh := &shardState{}
	idle := func() bool { return false }
	return func() {
		if !sp.tryPush(b) {
			panic("spsc ring full")
		}
		if _, ok := sp.tryPop(); !ok {
			panic("spsc ring empty")
		}
		// A push onto a parked consumer leaves the wake token that lets
		// the park below return.
		mp.parked.Store(true)
		if !mp.tryPush(b) {
			panic("mpsc ring full")
		}
		mp.park(idle)
		if _, ok := mp.tryPop(); !ok {
			panic("mpsc ring empty")
		}
		mp.waiters.Add(1)
		mp.recycled()
		<-mp.room
		mp.waiters.Add(-1)
		if sh.pendingDeploy() != nil {
			panic("phantom pending deployment")
		}
	}
}
