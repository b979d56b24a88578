package timerwheel

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// item mimics how the flow table embeds a Node inside a larger entry.
type item struct {
	timer Node
	id    int
}

// collect builds a wheel whose expiries append the fired item ids.
func collect(t *testing.T, cfg Config) (*Wheel, *[]int) {
	t.Helper()
	var fired []int
	cfg.OnExpire = func(n *Node) {
		fired = append(fired, n.Data.(*item).id)
	}
	return New(cfg), &fired
}

func arm(w *Wheel, it *item, deadline time.Duration) {
	it.timer.Data = it
	w.Schedule(&it.timer, deadline)
}

func TestWheelFiresAtDeadline(t *testing.T) {
	w, fired := collect(t, Config{})
	items := make([]item, 3)
	for i := range items {
		items[i].id = i
	}
	arm(w, &items[0], 5*time.Millisecond)
	arm(w, &items[1], 20*time.Millisecond)
	arm(w, &items[2], 20*time.Millisecond)

	if n := w.Advance(4 * time.Millisecond); n != 0 {
		t.Fatalf("fired %d nodes before any deadline", n)
	}
	if n := w.Advance(5 * time.Millisecond); n != 1 {
		t.Fatalf("Advance(5ms) fired %d, want 1", n)
	}
	if len(*fired) != 1 || (*fired)[0] != 0 {
		t.Fatalf("fired = %v, want [0]", *fired)
	}
	if items[0].timer.Armed() {
		t.Fatal("fired node still armed")
	}
	// A single advance covering both remaining deadlines fires both.
	if n := w.Advance(time.Second); n != 2 {
		t.Fatalf("Advance(1s) fired %d, want 2", n)
	}
	if st := w.Stats(); st.Expiries != 3 {
		t.Fatalf("Expiries = %d, want 3", st.Expiries)
	}
}

// TestWheelCascadeBoundaries arms deadlines straddling every level span
// boundary and checks each fires exactly when the clock passes it — the
// cascade re-files nodes downward rather than firing a whole upper slot at
// once.
func TestWheelCascadeBoundaries(t *testing.T) {
	w, _ := collect(t, Config{})
	tick := w.Tick()
	slots := int64(DefaultSlots)
	// Level spans in ticks: 64, 64², 64³. Probe each boundary ± 1 tick.
	var deadlines []time.Duration
	for _, span := range []int64{slots, slots * slots, slots * slots * slots} {
		for _, d := range []int64{span - 1, span, span + 1} {
			deadlines = append(deadlines, time.Duration(d)*tick)
		}
	}
	items := make([]item, len(deadlines))
	for i := range items {
		items[i].id = i
		arm(w, &items[i], deadlines[i])
	}
	for i, d := range deadlines {
		if w.Now() < d-tick {
			if n := w.Advance(d - tick); n != 0 {
				t.Fatalf("deadline %v: %d nodes fired a tick early", d, n)
			}
		}
		if items[i].timer.Armed() == false {
			t.Fatalf("deadline %v fired before the clock reached it", d)
		}
		if n := w.Advance(d); n != 1 {
			t.Fatalf("Advance(%v) fired %d, want exactly 1", d, n)
		}
	}
	st := w.Stats()
	if len(st.Cascades) != DefaultLevels-1 {
		t.Fatalf("Cascades has %d levels, want %d", len(st.Cascades), DefaultLevels-1)
	}
	// The 64²- and 64³-tick deadlines must have travelled through upper
	// levels.
	if st.Cascades[0] == 0 || st.Cascades[1] == 0 {
		t.Fatalf("cascade counters = %v, want levels 1 and 2 exercised", st.Cascades)
	}
}

func TestWheelRearm(t *testing.T) {
	w, fired := collect(t, Config{})
	it := &item{id: 7}
	arm(w, it, 10*time.Millisecond)
	// Push the deadline out (the touch path re-arms on every packet).
	w.Schedule(&it.timer, 50*time.Millisecond)
	if n := w.Advance(40 * time.Millisecond); n != 0 {
		t.Fatalf("stale deadline fired after re-arm (%d nodes)", n)
	}
	// Pull it back in.
	w.Schedule(&it.timer, 45*time.Millisecond)
	if n := w.Advance(45 * time.Millisecond); n != 1 {
		t.Fatalf("re-armed node did not fire at new deadline (%d fired)", n)
	}
	if n := w.Advance(time.Second); n != 0 {
		t.Fatalf("node fired twice after re-arms (%d extra)", n)
	}
	if len(*fired) != 1 {
		t.Fatalf("fired = %v, want exactly one firing", *fired)
	}
}

func TestWheelDisarm(t *testing.T) {
	w, fired := collect(t, Config{})
	items := make([]item, 3)
	for i := range items {
		items[i].id = i
		arm(w, &items[i], 10*time.Millisecond)
	}
	items[1].timer.Unlink()
	items[1].timer.Unlink() // idempotent
	var never Node
	never.Unlink() // safe on a node that was never armed
	if n := w.Advance(time.Second); n != 2 {
		t.Fatalf("Advance fired %d, want 2 (one disarmed)", n)
	}
	for _, id := range *fired {
		if id == 1 {
			t.Fatal("disarmed node fired")
		}
	}
}

// TestWheelLapWraparound drives the clock through several full level-0 laps,
// arming between laps: a slot index reused across laps must only fire the
// nodes due in the current lap.
func TestWheelLapWraparound(t *testing.T) {
	w, fired := collect(t, Config{})
	tick := w.Tick()
	lap := time.Duration(DefaultSlots) * tick
	items := make([]item, 5)
	for l := 0; l < len(items); l++ {
		items[l].id = l
		// Same level-0 slot index every lap (deadline ≡ 10 ticks mod 64).
		arm(w, &items[l], time.Duration(l)*lap+10*tick)
	}
	for l := 0; l < len(items); l++ {
		due := time.Duration(l)*lap + 10*tick
		if w.Now() < due-tick {
			if n := w.Advance(due - tick); n != 0 {
				t.Fatalf("lap %d: fired %d early", l, n)
			}
		}
		if n := w.Advance(due); n != 1 {
			t.Fatalf("lap %d: Advance fired %d, want 1", l, n)
		}
		if (*fired)[len(*fired)-1] != l {
			t.Fatalf("lap %d: fired %v out of lap order", l, *fired)
		}
	}
}

// TestWheelHorizonClamp: a deadline past the wheel's span fires at the
// horizon instead of being lost.
func TestWheelHorizonClamp(t *testing.T) {
	w, fired := collect(t, Config{Slots: 4, Levels: 2}) // horizon: 15 ticks
	it := &item{id: 1}
	arm(w, it, time.Hour)
	if n := w.Advance(w.Horizon() - w.Tick()); n != 0 {
		t.Fatalf("clamped node fired %d before the horizon", n)
	}
	if n := w.Advance(w.Horizon() + w.Tick()); n != 1 {
		t.Fatalf("clamped node did not fire at the horizon (fired %d)", n)
	}
	if len(*fired) != 1 || (*fired)[0] != 1 {
		t.Fatalf("fired = %v, want [1]", *fired)
	}
}

// TestWheelRelinkAfterCopy simulates cuckoo displacement: an armed entry is
// copied to another cell, Relink repairs the list, the stale source is
// zeroed without Unlink — and the wheel fires the relocated copy.
func TestWheelRelinkAfterCopy(t *testing.T) {
	var got *item
	w := New(Config{OnExpire: func(n *Node) { got = n.Data.(*item) }})
	cells := make([]item, 4)
	cells[0].id = 100
	arm(w, &cells[0], 30*time.Millisecond)

	// The container's relocation path: copy, repoint Data, Relink, zero src.
	cells[3] = cells[0]
	cells[3].timer.Data = &cells[3]
	cells[3].timer.Relink()
	cells[0] = item{}

	if n := w.Advance(time.Second); n != 1 {
		t.Fatalf("relocated node fired %d times, want 1", n)
	}
	if got != &cells[3] {
		t.Fatal("expiry callback saw the stale cell, not the relocated one")
	}
}

// TestWheelPastDeadlineFiresNext: a deadline at or before the wheel's
// current time fires on the next advancing tick, never silently parks.
func TestWheelPastDeadlineFiresNext(t *testing.T) {
	w, _ := collect(t, Config{})
	w.Advance(100 * time.Millisecond)
	it := &item{id: 1}
	arm(w, it, 50*time.Millisecond) // already past
	if n := w.Advance(100*time.Millisecond + w.Tick()); n != 1 {
		t.Fatalf("past deadline fired %d on next tick, want 1", n)
	}
}

// TestWheelLazyRearmLater pins the lazy re-arm: pushing an armed node's
// deadline later leaves it linked in the slot it was filed under, yet it
// fires exactly at the new due tick — including when the new deadline
// sends it through a level-1 cascade on the way.
func TestWheelLazyRearmLater(t *testing.T) {
	w, fired := collect(t, Config{})
	tick := w.Tick()
	it := &item{id: 1}
	arm(w, it, 10*tick)
	prev, next := it.timer.prev, it.timer.next
	w.Schedule(&it.timer, 100*tick) // past level 0's 64-tick span
	if it.timer.prev != prev || it.timer.next != next || it.timer.filed != 10 {
		t.Fatalf("later re-arm relinked the node (filed %d, want 10)", it.timer.filed)
	}
	if it.timer.due != 100 {
		t.Fatalf("due = %d, want 100", it.timer.due)
	}
	// The old slot's visit re-files the node instead of firing it.
	if n := w.Advance(10 * tick); n != 0 {
		t.Fatalf("node fired at its stale filed tick (%d fired)", n)
	}
	if !it.timer.Armed() || it.timer.filed != 100 {
		t.Fatalf("node not re-filed for its due tick (armed %v, filed %d)", it.timer.Armed(), it.timer.filed)
	}
	cascaded := w.Stats().Cascades[0]
	if n := w.Advance(99 * tick); n != 0 {
		t.Fatalf("node fired a tick early (%d fired)", n)
	}
	if w.Stats().Cascades[0] == cascaded {
		t.Fatal("re-filed node did not travel through level 1")
	}
	if n := w.Advance(100 * tick); n != 1 {
		t.Fatalf("Advance to the new due tick fired %d, want 1", n)
	}
	if len(*fired) != 1 {
		t.Fatalf("fired = %v, want exactly one firing", *fired)
	}
}

// TestWheelLazyRearmEarlier: pulling a deadline earlier than the tick the
// node is filed for relinks it at once, so it fires early rather than at
// its old slot.
func TestWheelLazyRearmEarlier(t *testing.T) {
	w, _ := collect(t, Config{})
	tick := w.Tick()
	it := &item{id: 1}
	arm(w, it, 50*tick)
	w.Schedule(&it.timer, 20*tick)
	if it.timer.filed != 20 || it.timer.due != 20 {
		t.Fatalf("earlier re-arm: filed %d due %d, want 20/20", it.timer.filed, it.timer.due)
	}
	if n := w.Advance(19 * tick); n != 0 {
		t.Fatalf("fired %d before the new deadline", n)
	}
	if n := w.Advance(20 * tick); n != 1 {
		t.Fatalf("earlier re-arm did not fire at its new deadline (%d fired)", n)
	}
	if n := w.Advance(time.Second); n != 0 {
		t.Fatalf("node fired again at its old deadline (%d fired)", n)
	}
	// One tick earlier is still earlier.
	arm(w, it, w.Now()+10*tick)
	w.Schedule(&it.timer, w.Now()+9*tick)
	if n := w.Advance(w.Now() + 9*tick); n != 1 {
		t.Fatalf("re-arm one tick earlier fired %d at its new deadline, want 1", n)
	}
}

// TestWheelUnlinkClearsFiled: a disarmed node carries no filed tick, so a
// later re-arm of it links it afresh instead of taking the lazy path.
func TestWheelUnlinkClearsFiled(t *testing.T) {
	w, _ := collect(t, Config{})
	tick := w.Tick()
	it := &item{id: 1}
	arm(w, it, 30*tick)
	it.timer.Unlink()
	if it.timer.filed != 0 || it.timer.due != 0 || it.timer.Armed() {
		t.Fatalf("Unlink left filed %d due %d armed %v", it.timer.filed, it.timer.due, it.timer.Armed())
	}
	w.Schedule(&it.timer, 40*tick)
	if !it.timer.Armed() || it.timer.filed != 40 {
		t.Fatalf("re-arm after Unlink: armed %v filed %d, want true/40", it.timer.Armed(), it.timer.filed)
	}
	if n := w.Advance(40 * tick); n != 1 {
		t.Fatalf("re-armed node fired %d, want 1", n)
	}
}

// TestWheelMatchesReference drives a small wheel (8 slots × 3 levels, a
// 511-tick horizon, so cascades and horizon clamps are frequent) through a
// seeded random sequence of arms, re-arms, disarms and advances, and checks
// every Advance fires exactly the nodes a map of deadlines says are due.
func TestWheelMatchesReference(t *testing.T) {
	w, fired := collect(t, Config{Slots: 8, Levels: 3})
	tick := w.Tick()
	span := int64(w.Horizon() / tick)
	rng := rand.New(rand.NewSource(12))
	items := make([]item, 64)
	for i := range items {
		items[i].id = i
		items[i].timer.Data = &items[i]
	}
	ref := make(map[int]int64) // item id -> due tick
	var cur int64
	for step := 0; step < 20000; step++ {
		it := &items[rng.Intn(len(items))]
		switch op := rng.Intn(10); {
		case op < 6:
			// Deadlines from the past to beyond the horizon, not
			// tick-aligned, so the ceiling and both clamps all occur —
			// or, for an armed node, within two ticks of its current due
			// tick, the boundary between the lazy and the relinking path.
			deadline := time.Duration(cur-8)*tick + time.Duration(rng.Int63n(int64(span+40)*int64(tick)))
			if due, armed := ref[it.id]; armed && op < 3 {
				deadline = time.Duration(due+rng.Int63n(5)-2) * tick
			}
			if deadline < 0 {
				deadline = 0
			}
			w.Schedule(&it.timer, deadline)
			due := int64((deadline + tick - 1) / tick)
			if due <= cur {
				due = cur + 1
			}
			if due > cur+span {
				due = cur + span
			}
			ref[it.id] = due
		case op < 7:
			it.timer.Unlink()
			delete(ref, it.id)
		default:
			cur += rng.Int63n(24)
			*fired = (*fired)[:0]
			w.Advance(time.Duration(cur) * tick)
			var want []int
			for id, due := range ref {
				if due <= cur {
					want = append(want, id)
					delete(ref, id)
				}
			}
			got := append([]int(nil), *fired...)
			sort.Ints(got)
			sort.Ints(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Advance(%d ticks) fired %v, reference says %v", step, cur, got, want)
			}
		}
		for i := range items {
			if _, armed := ref[i]; armed != items[i].timer.Armed() {
				t.Fatalf("step %d: item %d armed=%v, reference armed=%v", step, i, items[i].timer.Armed(), armed)
			}
		}
	}
}
