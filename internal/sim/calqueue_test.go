package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"slices"
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
	if err := storageSound(&h.s.cal); err != nil {
		h.t.Fatalf("after drain: %v", err)
	}
}

// storageSound checks what the calendar's storage promises at any instant
// between operations: a bucket is on its own chunk of the slab or, holding
// something, on a borrowed power-of-two array; idle arrays are empty, filed
// under their size and cleared; no array is in two places; and nothing
// outside the pending entries pins an event.
func storageSound(q *calQueue) error {
	seen := map[*calEntry]string{}
	claim := func(arr []calEntry, who string) error {
		full := arr[:cap(arr)]
		if prev, dup := seen[&full[0]]; dup {
			return fmt.Errorf("%s shares its array with %s", who, prev)
		}
		seen[&full[0]] = who
		return nil
	}
	cleared := func(arr []calEntry) bool {
		for _, en := range arr {
			if en != (calEntry{}) {
				return false
			}
		}
		return true
	}
	for b, arr := range q.buckets {
		who := fmt.Sprintf("bucket %d", b)
		switch c := cap(arr); {
		case c == calChunk:
			if &arr[:1][0] != &q.slab[b*calChunk] {
				return fmt.Errorf("%s sits on a chunk-sized array that is not its home chunk", who)
			}
		case c < calChunk || c&(c-1) != 0:
			return fmt.Errorf("%s has capacity %d, neither its home chunk nor a power of two above it", who, c)
		case len(arr) == 0:
			return fmt.Errorf("%s is empty and still holds a borrowed array of %d", who, c)
		default:
			if err := claim(arr, who); err != nil {
				return err
			}
		}
		if !cleared(arr[len(arr):cap(arr)]) {
			return fmt.Errorf("%s keeps entries past its length", who)
		}
	}
	if q.runDay != calNoRun {
		if err := claim(q.run, "the run"); err != nil {
			return err
		}
		if !cleared(q.run[:q.runHead]) || !cleared(q.run[len(q.run):cap(q.run)]) {
			return fmt.Errorf("the run keeps entries outside its live part")
		}
	}
	for c, idle := range q.free {
		for _, arr := range idle {
			who := fmt.Sprintf("an idle array of class %d", c)
			if len(arr) != 0 || cap(arr) != 1<<c || c <= bits.TrailingZeros(calChunk) {
				return fmt.Errorf("%s has length %d and capacity %d", who, len(arr), cap(arr))
			}
			if !cleared(arr[:cap(arr)]) {
				return fmt.Errorf("%s was not cleared", who)
			}
			if err := claim(arr, who); err != nil {
				return err
			}
		}
	}
	return nil
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
//     crowded day is half drained;
//   - hand-back: every way a bucket returns the array it borrowed, while the
//     crowded day drains — stops that empty a crowded bucket on another day
//     and one aliased onto the run's own, resets into a bucket that has
//     outgrown its home chunk, and a calendar resize with all of that pending
//     — each checked against the storage it should leave behind.
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

	t.Run("hand-back", func(t *testing.T) {
		h := newRefSched(t, 6)
		s, q := h.s, &h.s.cal
		bucketOf := func(at Time) int { return int(uint64(at)>>q.shift) & q.mask }
		borrowed := func(at Time) bool { return cap(q.buckets[bucketOf(at)]) > calChunk }
		// A second crowd a second behind the burst, too small to be ordered,
		// large enough to borrow: what the members stop and reset into.
		const sideAt, nSide = burstAt + Second, calRunMin - 4
		var side, aliased []int
		stopAll := func(ids *[]int) {
			for _, id := range *ids {
				h.stop(id)
			}
			*ids = nil
		}
		h.onFire = func() {
			if s.Now() != burstAt {
				return
			}
			switch h.fired {
			case 100:
				// The day is ordered, so its bucket is back on its home chunk;
				// events a calendar year on alias into that bucket and push it
				// off the chunk again, under the live run.
				if q.runDay == calNoRun || borrowed(burstAt) {
					t.Fatalf("100 ties in: run live %v, its bucket off the home chunk %v", q.runDay != calNoRun, borrowed(burstAt))
				}
				year := Time(len(q.buckets)) << q.shift
				for i := 0; i < 2*calChunk; i++ {
					aliased = append(aliased, h.nextID)
					h.arm(burstAt + year + Time(i))
				}
				if bucketOf(burstAt+year) != bucketOf(burstAt) || !borrowed(burstAt) {
					t.Fatal("the aliased events did not crowd the run's bucket: the row tests nothing")
				}
			case 200:
				stopAll(&aliased)
				if borrowed(burstAt) {
					t.Error("stopping the last aliased event left the run's bucket off its home chunk")
				}
			case 300:
				if !borrowed(sideAt) {
					t.Fatal("the side crowd fits its home chunk: the row tests nothing")
				}
				for i := 0; i < nSide; i++ { // fill the side bucket's array, and the next size up
					id, _ := h.victim()
					h.reset(id, sideAt+Time(i))
				}
			case 400:
				// Resize with the run a third drained and the side bucket
				// borrowed. The new width may alias anything onto the side
				// day's bucket, so from here storageSound speaks for it.
				before := len(q.buckets)
				for i := 0; i < 2*before; i++ {
					h.arm(burstAt + 2*Second + Time(i)*Millisecond)
				}
				if len(q.buckets) == before {
					t.Fatal("the calendar did not grow mid-drain: the row tests nothing")
				}
			case 500:
				// Every side event is a timer: the originals, and members reset there.
				for id := range h.timers {
					if tm := h.timers[id]; tm.Active() && tm.When() >= sideAt && tm.When() < sideAt+nSide {
						side = append(side, id)
					}
				}
				slices.Sort(side) // map order must not pick the victims' order
				if len(side) != 2*nSide {
					t.Fatalf("%d events pending on the side day, want %d", len(side), 2*nSide)
				}
				stopAll(&side)
			}
			if err := storageSound(q); err != nil {
				t.Fatalf("after %d ties: %v", h.fired, err)
			}
		}
		h.loadBurst(1024)
		for i := 0; i < nSide; i++ {
			h.arm(sideAt + Time(i))
		}
		h.finish()
		if len(aliased)+len(side) != 0 || h.stopped != 2*calChunk+2*nSide {
			t.Fatalf("stopped %d events, want %d: a step of the row never ran", h.stopped, 2*calChunk+2*nSide)
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
	// A power-of-two slot, so that slots recur on the same few buckets;
	// TestRotatingCrowdAllocatesNothing walks the crowd round the wheel.
	const slot = Time(1) << 30
	for _, width := range tieBurstWidths {
		s := tieBurstLoad(width, slot, func() {})
		s.RunUntil(24 * slot)
		if avg := testing.AllocsPerRun(10, func() { s.RunUntil(s.Now() + slot) }); avg != 0 {
			t.Errorf("width %d: %.1f allocations per slot once warm, want 0", width, avg)
		}
	}
}

// TestCrowdReturnsItsArrays pins where a crowd's storage goes when the crowd
// has gone: 1000 ties borrow an array of every size on the way up, and once
// they have fired every bucket is back on its home chunk and the arrays sit
// in the freelist, one class each, for the next crowd on any day.
func TestCrowdReturnsItsArrays(t *testing.T) {
	s := NewScheduler()
	crowd := func() {
		at := s.Now() + Second
		for i := 0; i < 1000; i++ {
			s.Schedule(at, func() {})
		}
		s.Schedule(at+Second, func() {}) // the cursor leaves the crowded day, as it does mid-simulation
		s.Run()
	}
	crowd()
	q := &s.cal
	if err := storageSound(q); err != nil {
		t.Fatal(err)
	}
	for b, arr := range q.buckets {
		if cap(arr) != calChunk {
			t.Fatalf("bucket %d still holds an array of %d after the drain", b, cap(arr))
		}
	}
	for c := bits.TrailingZeros(calChunk) + 1; 1<<c <= 1024; c++ {
		if c >= len(q.free) || len(q.free[c]) == 0 {
			t.Errorf("no idle array of %d entries: the crowd's storage was dropped, not released", 1<<c)
		}
	}
	// The next crowd, on another day, needs nothing new.
	if avg := testing.AllocsPerRun(1, crowd); avg != 0 {
		t.Errorf("a second crowd of the same size allocated %.0f times", avg)
	}

	// Rebuilding the calendar keeps every array: with a crowd pending, a
	// width change allocates nothing and a resize only the new calendar's
	// bucket array and slab.
	for i := 0; i < 1000; i++ {
		s.Schedule(s.Now()+Second+Time(i%4)*Millisecond, func() {})
	}
	q.setShift(int(q.shift) ^ 1) // sizes refile's scratch buffer
	if avg := testing.AllocsPerRun(4, func() { q.setShift(int(q.shift) ^ 1) }); avg != 0 {
		t.Errorf("changing the day width under a pending crowd allocated %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1, q.grow); avg != 2 {
		t.Errorf("doubling the calendar under a pending crowd allocated %.0f times, want 2", avg)
	}
	if err := storageSound(q); err != nil {
		t.Fatal(err)
	}
}

// TestRotatingCrowdAllocatesNothing is the zero-allocation slot where the
// calendar's storage has to move to stay allocation-free: a slot that is no
// multiple of the day width, so every boundary crowds a different bucket and
// the wheel goes round under the crowd; a calendar resize and a width change
// with the crowd half drained; and, every slot, events aliased onto the
// ordered day's bucket that are stopped under the live run, so the bucket
// borrows and hands back while its own day's array is the run. After a
// warm-up of two calendar years a slot allocates nothing.
func TestRotatingCrowdAllocatesNothing(t *testing.T) {
	const width, slot = 1024, 250 * Millisecond
	var s *Scheduler
	var q *calQueue
	// The first event off every ordered day runs the slot's storage script.
	aliased := make([]Timer, 2*calChunk)
	handedBack := 0
	first := func() {
		b := q.curBkt
		wasOff := cap(q.buckets[b]) > calChunk
		for i := range aliased {
			aliased[i].Stop()
		}
		if wasOff && q.curTop == q.runTop && cap(q.buckets[b]) == calChunk {
			handedBack++
		}
		// A calendar year past the next boundary is the next boundary's bucket.
		year := Time(len(q.buckets)) << q.shift
		for i := range aliased {
			aliased[i].ResetAt(s.Now() + slot + year)
		}
	}
	var script func()
	s = tieBurstLoad(width, slot, func() {
		if q.curTop == q.runTop && q.runHead == 1 {
			first()
		}
		if script != nil {
			script()
		}
	})
	q = &s.cal
	for i := range aliased {
		aliased[i] = s.MakeTimer(func() { t.Error("an aliased timer outlived its boundary") })
	}

	// Warm-up, part one: with a boundary half drained, enough one-shot events
	// to double the calendar; a boundary later, a day width the feedback then
	// has to put back.
	grew, retuned := false, false
	script = func() {
		if q.curTop != q.runTop || q.runHead != width/2 {
			return
		}
		switch before, sh := len(q.buckets), q.shift; {
		case !grew:
			for i := 0; i < 2*before; i++ {
				s.Schedule(s.Now()+Time(i+1)*(slot/Time(2*before)), func() {})
			}
			grew = len(q.buckets) > before
		case !retuned:
			q.setShift(int(sh) + 2)
			retuned = q.shift != sh
		}
	}
	s.RunUntil(8 * slot)
	script = nil
	if !grew || !retuned {
		t.Fatalf("warm-up resized the calendar %v and changed the day width %v under a live run, want both", grew, retuned)
	}
	// Part two: the wheel goes round twice under the crowd.
	from := s.Now()
	for n := 0; uint64(s.Now()-from)>>q.shift < 2*uint64(len(q.buckets)); n++ {
		if n == 4096 {
			t.Fatalf("two calendar years of 2^%d ns days and %d buckets are more than %d slots", q.shift, len(q.buckets), n)
		}
		s.RunUntil(s.Now() + slot)
	}
	t.Logf("warm-up: %d slots, %d buckets, day width 2^%d ns, %d events fired", s.Now()/slot, len(q.buckets), q.shift, s.Fired())
	handedBack = 0
	if avg := testing.AllocsPerRun(10, func() { s.RunUntil(s.Now() + slot) }); avg != 0 {
		t.Errorf("%.1f allocations per slot once warm, want 0", avg)
	}
	if handedBack != 11 {
		t.Errorf("the ordered day's bucket borrowed and handed back under the live run in %d of 11 slots", handedBack)
	}
	if err := storageSound(q); err != nil {
		t.Error(err)
	}
}

// TestFreshSchedulerAllocationBound bounds what a calendar of one's own
// costs: BenchmarkSchedulerFanOut's body — build, 1000 timers, drain — is
// 1000 events and a few dozen allocations of calendar, where growing every
// bucket's array by append made it 2695.
func TestFreshSchedulerAllocationBound(t *testing.T) {
	if avg := testing.AllocsPerRun(10, fanOut); avg > 1200 {
		t.Errorf("a fresh scheduler with 1000 timers cost %.0f allocations, want at most 1200", avg)
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
