package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEvent is one pending entry of the reference scheduler: a plain binary
// heap ordered by (at, akey, seq), exactly the contract the calendar queue
// must reproduce.
type refEvent struct {
	at   Time
	akey Time
	seq  uint64
	id   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].akey != h[j].akey {
		return h[i].akey < h[j].akey
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refSched drives a Scheduler and the reference heap side by side. Every
// arm, stop and reset goes to both; every firing callback asserts that the
// reference agrees the fired event is the minimum, then hands control to
// the row's onFire hook, which mutates mid-run — from inside firing
// callbacks, which is where cursor-rewind and half-drained-day bugs live.
type refSched struct {
	t   *testing.T
	s   *Scheduler
	rng *RNG

	ref     refHeap
	dead    map[uint64]bool // seqs stopped or superseded by a reset
	timers  map[int]*Timer
	liveSeq map[int]uint64 // timer id → its pending seq
	pending []int          // timer ids with a pending entry: the victim pool
	slot    map[int]int    // timer id → index in pending
	nextID  int

	total, fired, stopped int
	onFire                func()
}

func newRefSched(t *testing.T, seed uint64) *refSched {
	return &refSched{
		t: t, s: NewScheduler(), rng: NewRNG(seed),
		dead: map[uint64]bool{}, timers: map[int]*Timer{},
		liveSeq: map[int]uint64{}, slot: map[int]int{},
	}
}

func (h *refSched) unpend(id int) {
	i, ok := h.slot[id]
	if !ok {
		h.t.Fatalf("id %d not in pending set", id)
	}
	last := len(h.pending) - 1
	h.pending[i] = h.pending[last]
	h.slot[h.pending[i]] = i
	h.pending = h.pending[:last]
	delete(h.slot, id)
	delete(h.liveSeq, id)
}

// refMin discards dead tops and returns the reference's live minimum.
func (h *refSched) refMin() (refEvent, bool) {
	for len(h.ref) > 0 && h.dead[h.ref[0].seq] {
		delete(h.dead, h.ref[0].seq)
		heap.Pop(&h.ref)
	}
	if len(h.ref) == 0 {
		return refEvent{}, false
	}
	return h.ref[0], true
}

// fire is every event's callback: the calendar queue chose to fire id now,
// and the reference heap must agree it is the minimum.
func (h *refSched) fire(id int) {
	top, ok := h.refMin()
	if !ok || top.id != id || top.at != h.s.Now() {
		h.t.Fatalf("pop order diverged: calendar fired id=%d at %d, heap expected id=%d at %d (live=%v)",
			id, h.s.Now(), top.id, top.at, ok)
	}
	heap.Pop(&h.ref)
	if _, isTimer := h.timers[id]; isTimer {
		h.unpend(id)
	}
	h.fired++
	if h.onFire != nil {
		h.onFire()
	}
}

// arm schedules a fresh cancellable timer at `at` on both structures.
func (h *refSched) arm(at Time) {
	id := h.nextID
	h.nextID++
	h.total++
	tm := h.s.NewTimer(func() { h.fire(id) })
	h.timers[id] = tm
	tm.ResetAt(at)
	h.track(id, at)
}

// track records the entry the ResetAt that just ran created.
func (h *refSched) track(id int, at Time) {
	seq := h.s.seq - 1 // the seq the arm just consumed
	h.liveSeq[id] = seq
	h.slot[id] = len(h.pending)
	h.pending = append(h.pending, id)
	heap.Push(&h.ref, refEvent{at: at, akey: h.s.Now(), seq: seq, id: id})
}

// armKeyed files a fire-and-forget event under an explicit akey, as the
// shard coordinator does for cross-shard deliveries.
func (h *refSched) armKeyed(at, akey Time) {
	id := h.nextID
	h.nextID++
	h.total++
	h.s.ScheduleKeyed(at, akey, func() { h.fire(id) })
	heap.Push(&h.ref, refEvent{at: at, akey: akey, seq: h.s.seq - 1, id: id})
}

func (h *refSched) victim() (int, bool) {
	if len(h.pending) == 0 {
		return 0, false
	}
	return h.pending[h.rng.IntN(len(h.pending))], true
}

func (h *refSched) stop(id int) {
	if !h.timers[id].Stop() {
		h.t.Fatalf("Stop(%d) reported not pending", id)
	}
	h.dead[h.liveSeq[id]] = true
	h.unpend(id)
	h.stopped++
}

func (h *refSched) reset(id int, at Time) {
	h.dead[h.liveSeq[id]] = true
	h.unpend(id)
	h.timers[id].ResetAt(at)
	h.track(id, at)
}

// probe asserts NextAt agrees with the reference's live minimum.
func (h *refSched) probe() {
	got, ok := h.s.NextAt()
	want, wok := h.refMin()
	if ok != wok || (ok && got != want.at) {
		h.t.Fatalf("NextAt = %d, %v; reference minimum is %d, %v", got, ok, want.at, wok)
	}
}

// finish drains the scheduler and checks nothing was lost or left behind.
func (h *refSched) finish() {
	h.s.Run()
	if len(h.pending) != 0 {
		h.t.Fatalf("%d timers never fired", len(h.pending))
	}
	if _, ok := h.refMin(); ok {
		h.t.Fatalf("reference heap still holds live events after drain")
	}
	if h.fired+h.stopped != h.total {
		h.t.Fatalf("fired %d + stopped %d != scheduled %d", h.fired, h.stopped, h.total)
	}
	if h.s.Pending() != 0 {
		h.t.Fatalf("scheduler still holds %d events after drain", h.s.Pending())
	}
}

// burstAt and burstSpan place every crowded-day row: the burst ties on
// burstAt and its stragglers spread over the burstSpan nanoseconds after
// it, all inside one day at every width the rows reach.
const (
	burstAt   = 20 * Second
	burstSpan = 4096
)

// loadBurst arms k timers tied on burstAt from virtual time zero, k/8 keyed
// entries on the same instant whose akeys sort before, among and after
// them, k/8 stragglers spread behind the tie, and a stage event halfway
// there that arms a second wave of k/4 ties — same instant, later akey.
func (h *refSched) loadBurst(k int) {
	for i := 0; i < k; i++ {
		h.arm(burstAt)
	}
	for i := 0; i < k/8; i++ {
		h.armKeyed(burstAt, Time(h.rng.IntN(3))*burstAt/4) // akey 0, T/4 or T/2
		h.arm(burstAt + Time(1+h.rng.IntN(burstSpan)))
	}
	h.s.Schedule(burstAt/2, func() {
		for i := 0; i < k/4; i++ {
			h.arm(burstAt)
		}
	})
}

// TestSchedulerMatchesReferenceHeap drives schedule/stop/reset workloads
// through the calendar-queue scheduler and a reference binary heap side by
// side, asserting the calendar queue pops every event in exactly the heap's
// (at, akey, seq) order. The rows pin order, never speed:
//
//   - seed=N: randomized slot-periodic bursts (the simulator's dominant
//     pattern), uniform noise, keyed entries, far-future outliers (forcing
//     day advances and width retunes), heavy mid-run cancellation and
//     reschedules;
//   - burst: 64 / 1024 / 4096 events tied on one boundary — a crowded day —
//     whose members, as they fire, stop and reset other members and arm new
//     events into the day being drained: at now, between the remaining
//     members, and past them;
//   - windows: the crowded day reached by RunUntil in windows narrower than
//     a day, NextAt probed between windows, an event armed earlier than the
//     crowded day after the cursor has already walked to it;
//   - grow and retune: a calendar resize and a width change forced while the
//     crowded day is half drained.
func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 20260808} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newRefSched(t, seed)
			s, rng := h.s, h.rng
			const maxEvents = 4000
			h.onFire = func() {
				// Mutate mid-run with the same deterministic stream.
				switch r := rng.IntN(11); {
				case r < 4 && h.total < maxEvents:
					// Slot-periodic burst: a cluster in the next "slot".
					slotStart := s.Now() + Millisecond
					for j := 0; j < 4 && h.total < maxEvents; j++ {
						h.arm(slotStart + Time(rng.IntN(int(Millisecond))))
					}
				case r < 6 && h.total < maxEvents:
					// Far-future outlier: stresses day advance + retune.
					h.arm(s.Now() + Time(1+rng.IntN(int(10*Second))))
				case r < 8 && len(h.pending) > 0:
					id, _ := h.victim()
					h.stop(id)
				case r < 10 && len(h.pending) > 0:
					// Reset a random pending timer to a fresh time.
					id, _ := h.victim()
					h.reset(id, s.Now()+Time(1+rng.IntN(int(Second))))
				case len(h.pending) > 0 && h.total < maxEvents:
					// A keyed entry tied with a pending timer, filed under an
					// earlier arming instant than the clock's.
					id, _ := h.victim()
					h.armKeyed(h.timers[id].When(), Time(rng.IntN(int(s.Now())+1)))
				}
			}
			// Seed load: slot bursts plus uniform noise, including exact
			// time ties (same at, distinct seq) to pin the tie-break.
			for slot := 0; slot < 20; slot++ {
				base := Time(slot) * 5 * Millisecond
				for j := 0; j < 8; j++ {
					h.arm(base + Time(rng.IntN(int(5*Millisecond))))
				}
				h.arm(base) // deliberate tie with slot start
				h.arm(base)
			}
			for i := 0; i < 100; i++ {
				h.arm(Time(rng.IntN(int(2 * Second))))
			}
			h.finish()
		})
	}

	for _, k := range []int{64, 1024, 4096} {
		t.Run(fmt.Sprintf("burst/k=%d", k), func(t *testing.T) {
			h := newRefSched(t, uint64(k))
			s, rng := h.s, h.rng
			// What the members may add between them: enough to land everywhere,
			// not enough to grow the calendar, whose re-seeded width would cut
			// the stragglers' span into many days.
			budget := k / 4
			h.onFire = func() {
				now := s.Now()
				if now < burstAt {
					return
				}
				// Where a new or moved event lands, relative to the day
				// being drained.
				target := func() Time {
					switch rng.IntN(4) {
					case 0:
						return now // behind every tie still pending at now
					case 1:
						return now + Time(rng.IntN(burstSpan)) // between the remaining members
					case 2:
						return max(now, burstAt+burstSpan) + Time(rng.IntN(burstSpan)) // past them, same day
					}
					return now + Second + Time(rng.IntN(burstSpan)) // another day, crowded in its turn
				}
				switch r := rng.IntN(8); {
				case r < 2:
					if id, ok := h.victim(); ok {
						h.stop(id)
					}
				case r < 4:
					if id, ok := h.victim(); ok {
						h.reset(id, target())
					}
				case r < 6 && budget > 0:
					budget--
					h.arm(target())
				case r < 7 && budget > 0:
					budget--
					h.armKeyed(target(), Time(rng.IntN(int(now)+1)))
				}
			}
			h.loadBurst(k)
			h.finish()
		})
	}

	t.Run("windows", func(t *testing.T) {
		h := newRefSched(t, 3)
		s, rng := h.s, h.rng
		h.loadBurst(1024)
		// Stop well short of the crowded day, then probe: NextAt walks the
		// cursor to it. An event armed now lands days before the cursor.
		s.RunUntil(burstAt / 2)
		h.probe()
		h.arm(s.Now() + 5)
		h.arm(s.Now() + 5*Millisecond)
		h.probe()
		s.RunUntil(burstAt - 1)
		h.probe()
		// Cross the day in windows far narrower than it, probing and arming
		// at every stop — before, inside and behind the part still pending.
		const step = burstSpan / 37
		for limit := burstAt; limit < burstAt+2*burstSpan; limit += step {
			s.RunUntil(limit)
			if s.Now() != limit {
				t.Fatalf("RunUntil(%d) left the clock at %d", limit, s.Now())
			}
			h.probe()
			h.arm(limit + Time(rng.IntN(3*step)))
			if id, ok := h.victim(); ok && rng.IntN(2) == 0 {
				h.reset(id, limit+Time(rng.IntN(burstSpan)))
			}
			h.probe()
		}
		h.finish()
	})

	t.Run("grow-mid-drain", func(t *testing.T) {
		h := newRefSched(t, 4)
		s := h.s
		grew := false
		h.onFire = func() {
			if s.Now() == burstAt && h.fired == 300 {
				// Enough far-future events to double the calendar, twice,
				// with the crowded day a quarter drained.
				before := len(s.cal.buckets)
				for i := 0; i < 8192; i++ {
					h.arm(burstAt + Second + Time(i)*Millisecond)
				}
				grew = len(s.cal.buckets) > before
			}
		}
		h.loadBurst(1024)
		h.finish()
		if !grew {
			t.Fatal("the calendar did not grow mid-drain: the row tests nothing")
		}
	})

	t.Run("retune-mid-drain", func(t *testing.T) {
		h := newRefSched(t, 5)
		s := h.s
		// A sparse prelude whose every pop walks ~20 empty days of the
		// initial width (loadBurst's ties go in first, on one instant, so
		// growing the calendar for them re-seeds nothing). The feedback
		// window that opens in the prelude closes inside the burst and
		// widens the days.
		h.loadBurst(2048)
		for i := 1; i <= 512; i++ {
			h.arm(Time(i) * 20 * Millisecond)
		}
		var first, last uint
		h.onFire = func() {
			if s.Now() == burstAt {
				if first == 0 {
					first = s.cal.shift
				}
				last = s.cal.shift
			}
		}
		h.finish()
		if first == last {
			t.Fatalf("day width stayed 2^%d ns through the burst: the row tests nothing", first)
		}
	})
}

// tieBurstLoad is the simulator's dominant load in miniature, the shape of
// the benchmark's sim.schedule_fire driver: `width` timers re-arm for the
// same slot boundary (one per receiver) and one emitter schedules 64 evenly
// spaced events a slot (a sender's packets). each runs in every callback.
func tieBurstLoad(width int, slot Time, each func()) *Scheduler {
	const perSlot = 64
	s := NewScheduler()
	timers := make([]Timer, width)
	for i := range timers {
		t := &timers[i]
		*t = s.MakeTimer(func() { each(); t.Reset(slot) })
		t.Reset(slot)
	}
	var emit func()
	emit = func() {
		each()
		now := s.Now()
		for j := 1; j < perSlot; j++ {
			s.Schedule(now+Time(j)*(slot/perSlot), each)
		}
		s.Schedule(now+slot, emit)
	}
	s.Schedule(0, emit)
	return s
}

var tieBurstWidths = []int{64, 1024, 16384}

// TestTieBurstStepsPerPop is the complexity guard for crowded days, read
// off the queue's own step counters so no wall clock is involved: draining
// a burst of k ties examines a small constant number of entries per pop at
// every k (rescanning the day read k/2) — under what the width feedback
// takes for crowding — and the feedback holds the
// same day width whatever k is — ties no day width can separate must not
// read as crowding, or the width ratchets down with the burst size.
func TestTieBurstStepsPerPop(t *testing.T) {
	const slot = 250 * Millisecond
	shifts := map[int]uint{}
	for _, width := range tieBurstWidths {
		// Each callback samples the counters; the difference between two
		// samples is one pop's steps. The pop that closes a feedback window
		// zeroes them and is skipped.
		var s *Scheduler
		var peeks, steps, pops, examined int
		s = tieBurstLoad(width, slot, func() {
			q := &s.cal
			if q.peeks == peeks+1 {
				pops++
				examined += q.bucketSteps - steps
			}
			peeks, steps = q.peeks, q.bucketSteps
		})
		s.RunUntil(10 * slot)
		if pops < 9*width {
			t.Fatalf("width %d: sampled %d pops, want most of 10 slots", width, pops)
		}
		perPop := float64(examined) / float64(pops)
		t.Logf("width %5d: %.2f entries examined per pop over %d pops, day width 2^%d ns", width, perPop, pops, s.cal.shift)
		if perPop >= calRetuneScan {
			t.Errorf("width %d: %.2f entries examined per pop, want a constant under the feedback's crowding threshold %d", width, perPop, calRetuneScan)
		}
		shifts[width] = s.cal.shift
	}
	for _, width := range tieBurstWidths {
		if shifts[width] != shifts[tieBurstWidths[0]] {
			t.Errorf("day width depends on the burst size: 2^%d ns at width %d, 2^%d ns at width %d",
				shifts[width], width, shifts[tieBurstWidths[0]], tieBurstWidths[0])
		}
	}
}

// TestTieBurstAllocatesNothing pins the steady state of the same load: a
// slot — `width` re-arms onto one boundary, its ordered drain, 64 spaced
// emissions — allocates nothing once the buckets in play have been filed
// into before.
func TestTieBurstAllocatesNothing(t *testing.T) {
	// A power-of-two slot, so that slots recur on the same few buckets and
	// "filed into before" takes a few slots. With the benchmark driver's
	// 250 ms every boundary lands on a bucket of its own until the wheel
	// has gone round; the burst's array follows it there (tradeUp), but a
	// bucket's first few entries still grow it a small one of its own.
	const slot = Time(1) << 30
	for _, width := range tieBurstWidths {
		s := tieBurstLoad(width, slot, func() {})
		s.RunUntil(24 * slot)
		if avg := testing.AllocsPerRun(10, func() { s.RunUntil(s.Now() + slot) }); avg != 0 {
			t.Errorf("width %d: %.1f allocations per slot once warm, want 0", width, avg)
		}
	}
}

// BenchmarkSchedulerTieBurst times one fired event of the tie-burst load at
// three burst sizes; per-event cost should not depend on the size.
func BenchmarkSchedulerTieBurst(b *testing.B) {
	const slot = 250 * Millisecond
	for _, width := range tieBurstWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			s := tieBurstLoad(width, slot, func() {})
			s.RunUntil(4 * slot)
			b.ReportAllocs()
			b.ResetTimer()
			for start := s.Fired(); s.Fired()-start < uint64(b.N); {
				s.RunUntil(s.Now() + slot)
			}
		})
	}
}

// BenchmarkSchedulerSlotPeriodic models the simulator's dominant load: many
// sessions, each burst-scheduling a slot's worth of events and draining
// them before the next slot. The calendar queue's day width tunes itself to
// the intra-slot spacing, making insert and pop O(1) amortized where the
// binary heap paid O(log n) per operation on the burst.
func BenchmarkSchedulerSlotPeriodic(b *testing.B) {
	const sessions = 16
	const perSlot = 64
	slotDur := Time(250 * Millisecond)
	spacing := slotDur / perSlot

	s := NewScheduler()
	n := 0
	var runSlot func(sess int)
	runSlot = func(sess int) {
		start := s.Now()
		for j := 0; j < perSlot; j++ {
			s.Schedule(start+Time(j)*spacing+Time(sess), func() { n++ })
		}
		if n < b.N {
			s.Schedule(start+slotDur, func() { runSlot(sess) })
		}
	}
	b.ResetTimer()
	for sess := 0; sess < sessions; sess++ {
		sess := sess
		s.Schedule(Time(sess)*(slotDur/sessions), func() { runSlot(sess) })
	}
	s.Run()
}
