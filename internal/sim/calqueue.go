package sim

import (
	"math/bits"
	"slices"
)

// This file implements the scheduler's pending-event store as a calendar
// (bucket) queue in the style of Brown's calendar queues, tuned for the
// slot-periodic schedules this simulator produces: virtual time is cut
// into fixed-width "days", each day hashes to one bucket of an unordered
// power-of-two array, and a cursor sweeps the calendar day by day.
//
// A day is drained in one of two ways, chosen by how many entries it holds
// when the cursor reaches it — a property the queue observes, not a mode
// anyone sets:
//
//   - A light day (fewer than calRunMin entries; every day of a small
//     session) is scanned in place for its minimum on each pop. Insert
//     appends to the bucket and removal swaps with the bucket's last
//     element, both O(1); the width feedback below keeps such days near
//     one event, so pop is O(1) amortized.
//   - A crowded day is ordered once: its entries become the run, a slice
//     sorted by (at, akey, seq), and every pop after that takes the run's
//     head. Slot protocols crowd days with *ties* — every receiver's timer
//     on one boundary, every copy of a multicast packet finishing
//     serialization at one instant — and no day width separates a tie, so
//     rescanning cost k²/2 entry reads for a burst of k (64 % of a
//     1000-receiver profile); the run costs one sort plus O(1) per pop.
//     While the run exists its day is filed there and nowhere else: an
//     event armed into the day goes to its ordered position (the end, when
//     it sorts last — the common case, seq being monotone), and a member
//     is removed by binary search on its key, which is unique among
//     pending events (see Timer.ResetReserved). Members carry no position,
//     so neither touches another event.
//
// Buckets and the run store (at, akey, seq) inline next to the event
// pointer: the minimum scan, the sort and the searches walk contiguous
// entries and never dereference an event, so they run at cache speed
// regardless of where the freelist scattered the event objects.
//
// Ordering is strict (at, akey, seq) on both paths. All events whose
// timestamp falls inside the cursor's day live in the cursor's bucket or
// in the run, so the minimum of that day is the global minimum; ties at
// equal timestamps resolve by the insertion-stable seq the original heap
// compared, which is what keeps every seeded golden byte-identical.
//
// The bucket count is grow-only: simulation populations burst every slot (a
// sender schedules its whole slot's emissions at once, then the calendar
// drains), and shrinking on the trough just to re-grow on the next burst
// would rebuild the calendar twice per slot. Bucket storage follows the
// population, not the buckets. Every bucket owns a home chunk of calChunk
// entries, all carved from one slab allocated with the bucket array — a
// light day never needs more. A bucket that outgrows its array borrows one
// of twice the capacity from the freelist, which keeps idle arrays by
// power-of-two size and allocates only when it has none of the size asked
// for, and gives the old one back; the moment a bucket drains it returns
// what it borrowed and is back on its home chunk. So arrays change hands: a
// crowd moving from boundary to boundary finds the arrays the last boundary
// released, the calendar holds its slab plus what its largest simultaneous
// crowd needed, and steady state allocates nothing. Ordering a day allocates
// nothing either, and copies nothing: the run *is* its bucket's borrowed
// array, released when the run dissolves (see startRun and endRun). Growing
// the calendar carves a new slab and keeps every borrowed array. The day
// width self-tunes: it is seeded from the observed mean inter-event spacing
// whenever the calendar grows, then corrected by a feedback loop measuring
// where pop actually spends its steps — many entries examined or moved per
// pop means days are too wide (halve), many empty days walked means days are
// too narrow (double). Retuning refiles events through a reusable scratch
// buffer in place.
const (
	calMinBuckets = 64
	// calChunk is the capacity of a bucket's home chunk: what the width
	// feedback keeps a light day under, so most buckets never borrow, at 128
	// bytes of slab per bucket. A constant, not a knob: at 2, 4 and 8 the
	// benchmark's `population` workload allocated 28.7, 28.3 and 30.2 MB per
	// repetition (41.1 before there was a slab). A power of two, like every
	// array the freelist lends.
	calChunk = 4
	// calInitialShift makes the initial day width 2^20 ns (~1.05 ms). Day
	// widths are always powers of two so filing an event is a shift and a
	// mask, not a 64-bit division — place and the cursor math sit on the
	// hottest path in the simulator.
	calInitialShift = 20
	// The feedback window: every calRetuneWindow pops, compare the two
	// step counters against calRetuneScan steps per pop and adjust the
	// day width when either kind of work dominates.
	calRetuneWindow = 1024
	calRetuneScan   = 8
	// calRunMin is the day occupancy from which the cursor orders a day
	// instead of rescanning it: above the handful of entries an inline
	// scan reads faster than a sort can start, below the tens where a
	// rescan's k²/2 shows. Measured in shuffled order at 8, 24, 64 and 256
	// on the benchmark's `population` workload (1000 receivers tie on every
	// boundary): 0.52, 0.48, 0.49 and 0.58 s per repetition, flat from 8 to
	// 64; `figures`, whose days rarely crowd, read the same at 8, 24 and 64.
	calRunMin = 24
	// calNoRun is runDay when no day is ordered: timestamps are
	// non-negative int64s, so no event's day reaches it.
	calNoRun = ^uint64(0)
)

// calEntry files one pending event with its ordering key inline. Ordering
// is (at, akey, seq) — see the event type for why the middle component is
// redundant in serial runs but load-bearing for sharded ones.
type calEntry struct {
	at   Time
	akey Time
	seq  uint64
	e    *event
}

// before reports whether a fires before b.
func (a *calEntry) before(b *calEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.akey != b.akey {
		return a.akey < b.akey
	}
	return a.seq < b.seq
}

func calCompare(a, b calEntry) int {
	switch {
	case a.before(&b):
		return -1
	case b.before(&a):
		return 1
	}
	return 0
}

type calQueue struct {
	buckets [][]calEntry
	slab    []calEntry     // the buckets' home chunks, calChunk entries each
	free    [][][]calEntry // free[c]: idle borrowed arrays of capacity 1<<c, all cleared
	scratch []calEntry     // reused by refile; never shrinks
	mask    int            // len(buckets)-1; the bucket count is a power of two
	shift   uint           // log2 of the day width
	width   Time           // day width (1<<shift): the span of virtual time one bucket covers
	count   int
	curBkt  int  // bucket under the cursor
	curTop  Time // exclusive end of the day under the cursor

	// The ordered run: every pending entry of day runDay, sorted by
	// (at, akey, seq), live from runHead on. While a run exists its day has
	// no entry in the bucket array — place and remove route by day — so
	// buckets and run partition the pending set. The run belongs to a day,
	// not to the cursor: a rewind leaves it where it is.
	run       []calEntry
	runHead   int
	runCharge int    // feedback steps charged per pop from the run, see startRun
	runDay    uint64 // calNoRun when no day is ordered
	runTop    Time   // exclusive end of runDay; 0, which no curTop equals, when none is

	// Scan-cost accounting driving the width feedback.
	peeks       int
	bucketSteps int // entries examined or moved inside days (high => width too large)
	dayAdvances int // empty days walked past (high => width too small)
}

func (q *calQueue) init() {
	q.carve(calMinBuckets)
	q.shift = calInitialShift
	q.width = 1 << q.shift
	q.curTop = q.width
	q.runDay = calNoRun
}

// carve rebuilds the calendar with n empty buckets, each on its home chunk
// of a fresh slab. Callers have unfiled every entry.
func (q *calQueue) carve(n int) {
	q.buckets = make([][]calEntry, n)
	q.slab = make([]calEntry, n*calChunk)
	q.mask = n - 1
	for b := range q.buckets {
		q.buckets[b] = q.home(b)
	}
}

// home returns bucket b's chunk of the slab, empty. The capacity is capped
// so that a full chunk reads as full instead of running into its neighbour.
func (q *calQueue) home(b int) []calEntry {
	return q.slab[b*calChunk : b*calChunk : (b+1)*calChunk]
}

// roomier moves arr's entries, positions kept, into an array of twice the
// capacity — an idle one of that size if the freelist has any — and releases
// arr.
func (q *calQueue) roomier(arr []calEntry) []calEntry {
	c := bits.TrailingZeros(uint(cap(arr))) + 1
	var big []calEntry
	if c < len(q.free) && len(q.free[c]) > 0 {
		idle := q.free[c]
		big, q.free[c] = idle[len(idle)-1], idle[:len(idle)-1]
	} else {
		big = make([]calEntry, 0, 1<<c)
	}
	big = append(big, arr...)
	q.release(arr)
	return big
}

// release clears arr and, unless it is a home chunk — capacity tells, every
// borrowed array being larger — files it with the idle arrays of its size.
func (q *calQueue) release(arr []calEntry) {
	clear(arr)
	if cap(arr) == calChunk {
		return
	}
	c := bits.TrailingZeros(uint(cap(arr)))
	for len(q.free) <= c {
		q.free = append(q.free, nil)
	}
	q.free[c] = append(q.free[c], arr[:0])
}

// vacate puts bucket b, just drained, back on its home chunk and releases
// the array it had borrowed.
func (q *calQueue) vacate(b int) {
	q.release(q.buckets[b])
	q.buckets[b] = q.home(b)
}

// place files e where its day is kept: in the run if the day is the ordered
// one, else in the bucket owning the day, in a roomier array if the bucket's
// is full. e.at is never negative (the scheduler panics on past scheduling
// before any event reaches the queue, and the clock starts at zero).
func (q *calQueue) place(e *event) {
	day := uint64(e.at) >> q.shift
	if day == q.runDay {
		q.runInsert(e)
		return
	}
	b := int(day) & q.mask
	arr := q.buckets[b]
	if len(arr) == cap(arr) {
		arr = q.roomier(arr)
	}
	e.bkt = b
	e.idx = len(arr)
	q.buckets[b] = append(arr, calEntry{at: e.at, akey: e.akey, seq: e.seq, e: e})
}

func (q *calQueue) setCursor(day uint64) {
	q.curBkt = int(day) & q.mask
	q.curTop = Time(day+1) << q.shift
}

func (q *calQueue) insert(e *event) {
	if q.buckets == nil {
		q.init()
	}
	if q.count >= 2*len(q.buckets) {
		q.grow()
	}
	day := uint64(e.at) >> q.shift
	b := int(day) & q.mask
	if arr := q.buckets[b]; day != q.runDay && len(arr) < cap(arr) {
		// place, spelled out for the insert that finds room, as on a light
		// day every insert does: one predictable branch, no call.
		e.bkt = b
		e.idx = len(arr)
		q.buckets[b] = append(arr, calEntry{at: e.at, akey: e.akey, seq: e.seq, e: e})
	} else {
		q.place(e)
	}
	q.count++
	if q.count == 1 || e.at < q.curTop-q.width {
		// The event lands on a day before the cursor — or the queue was
		// empty, leaving the cursor parked wherever the last drain ended —
		// so rewind to the new event's day. This preserves the scan
		// invariant: no pending event's day precedes the cursor's day.
		q.setCursor(day)
	}
}

// remove unfiles a pending event: from a bucket in O(1) by swapping it with
// the bucket's last element, from the run by runRemove. A bucket it empties
// gives back what it borrowed. The cursor never moves here; removal can only
// leave the cursor's day emptier, which pop skips naturally.
func (q *calQueue) remove(e *event) {
	if uint64(e.at)>>q.shift == q.runDay {
		q.runRemove(e)
		return
	}
	arr := q.buckets[e.bkt]
	last := len(arr) - 1
	moved := arr[last]
	arr[e.idx] = moved
	moved.e.idx = e.idx
	arr[last] = calEntry{}
	q.buckets[e.bkt] = arr[:last]
	if last == 0 && cap(arr) > calChunk {
		q.vacate(e.bkt)
	}
	e.idx = -1
	q.count--
}

// pop removes and returns the earliest pending event by (at, akey, seq). In
// bounded mode an event past limit is left queued and pop returns nil —
// the run loop's horizon check is fused into the scan. Callers must ensure
// count > 0.
//
// The cursor advances day by day past empty days, and the first day
// holding an entry holds the global minimum: the run's head when the day
// is ordered (or crowded enough to order now), else the winner of an
// inline scan that shares one loop with its swap-removal so the bucket
// slice and index stay in registers. A full cycle without a hit means every
// pending event is at least one calendar year ahead, so pop falls back to
// a direct sweep for the global minimum, jumps the cursor to its day, and
// retries — sparse populations therefore cost O(buckets) per pop instead
// of walking empty virtual time.
func (q *calQueue) pop(bounded bool, limit Time) *event {
	q.peeks++
	for cycle := 0; cycle < len(q.buckets); cycle++ {
		arr := q.buckets[q.curBkt]
		if q.curTop == q.runTop || len(arr) >= calRunMin {
			if e, done := q.popRun(bounded, limit); done {
				return e
			}
			arr = q.buckets[q.curBkt]
		}
		// Seeding bestAt with the day's exclusive end folds the "entry is on
		// this day" bound into the ordinary best comparison: an entry at
		// exactly curTop belongs to a later day and can never win the tie
		// branches, because akeys are never negative and no uint64 seq
		// is < 0.
		best := -1
		bestAt := q.curTop
		var bestAkey Time
		var bestSeq uint64
		for i := range arr {
			en := &arr[i]
			if en.at < bestAt ||
				(en.at == bestAt && (en.akey < bestAkey ||
					(en.akey == bestAkey && en.seq < bestSeq))) {
				best, bestAt, bestAkey, bestSeq = i, en.at, en.akey, en.seq
			}
		}
		q.bucketSteps += len(arr)
		if best >= 0 {
			e := arr[best].e
			if bounded && e.at > limit {
				q.maybeRetune()
				return nil
			}
			last := len(arr) - 1
			if best != last {
				moved := arr[last]
				arr[best] = moved
				moved.e.idx = best
			}
			arr[last] = calEntry{}
			q.buckets[q.curBkt] = arr[:last]
			if last == 0 && cap(arr) > calChunk {
				q.vacate(q.curBkt)
			}
			e.idx = -1
			q.count--
			q.maybeRetune()
			return e
		}
		q.dayAdvances++
		q.curBkt = (q.curBkt + 1) & q.mask
		q.curTop += q.width
		// Bounded horizon cut: once the cursor's day starts past the limit,
		// no pending event can be within it (the cursor invariant puts every
		// pending event at or after the cursor's day), so stop instead of
		// walking to wherever the next event actually lives. Windowed sharded
		// runs hit this every window — without the cut each window-end pop
		// walks the idle stretch to the next slot timer, or worse, falls
		// through to the full-calendar sweep.
		if bounded && q.curTop-q.width > limit {
			q.maybeRetune()
			return nil
		}
	}
	q.endRun() // a run a year or more ahead of the cursor is swept with the rest
	var beste *event
	for _, arr := range q.buckets {
		for i := range arr {
			en := &arr[i]
			if beste == nil || en.at < beste.at ||
				(en.at == beste.at && (en.akey < beste.akey ||
					(en.akey == beste.akey && en.seq < beste.seq))) {
				beste = en.e
			}
		}
	}
	q.setCursor(uint64(beste.at) >> q.shift)
	return q.pop(bounded, limit)
}

// popRun is pop on a day that is ordered, or crowded enough to order now.
// done reports that pop's work is: e is the run's head, or nil for a head
// past a bounded pop's limit. Otherwise the day is not the run's — too few
// of the bucket's entries are on it, or the run is drained — and pop scans
// what the bucket holds. Kept out of pop's loop so that loop stays as tight
// as a light day needs it.
func (q *calQueue) popRun(bounded bool, limit Time) (e *event, done bool) {
	if q.curTop != q.runTop && !q.startRun() {
		return nil, false
	}
	if q.runHead == len(q.run) {
		// Drained, or emptied by Stop: the day has nothing left, here or in
		// its bucket, and pop's scan finds that out.
		q.endRun()
		return nil, false
	}
	en := &q.run[q.runHead]
	q.bucketSteps += q.runCharge
	if !bounded || en.at <= limit {
		e = en.e
		*en = calEntry{}
		q.runHead++
		e.idx = -1
		q.count--
	}
	q.maybeRetune()
	return e, true
}

// startRun orders the cursor's day if at least calRunMin of its bucket's
// entries are on it (the rest are later years aliased onto the bucket). The
// day's entries close up in place, in bucket order — usually already arming
// order, which the sort then only verifies — and the bucket's array, borrowed
// like any that holds a crowd, becomes the run; the bucket goes back on its
// home chunk, where the later years are filed. It reports whether the day is
// now the run's.
func (q *calQueue) startRun() bool {
	n := 0
	for _, en := range q.buckets[q.curBkt] {
		if en.at < q.curTop {
			n++
		}
	}
	if n < calRunMin {
		return false
	}
	q.endRun() // one run at a time: whatever another day's still holds goes back to its bucket
	arr := q.buckets[q.curBkt]
	q.buckets[q.curBkt] = q.home(q.curBkt)
	w := 0
	for i := range arr {
		if arr[i].at < q.curTop {
			arr[w] = arr[i]
			w++
			continue
		}
		q.place(arr[i].e) // no run yet, so into the bucket
	}
	clear(arr[w:])
	q.run = arr[:w]
	slices.SortFunc(q.run, calCompare)
	q.runTop = q.curTop
	q.runDay = uint64(q.curTop-1) >> q.shift
	// What the width feedback is charged per pop: one step to read the
	// head, one for the entry's share of this pass, and its share of what a
	// narrower day would have saved — scanning the day's d distinct
	// instants apart costs d²/2 reads. Ties cost nothing extra: no width
	// separates them, so a burst of any size reads as 2 steps a pop, where
	// the rescan read half the burst and drove the width down until the
	// wheel aliased. Charged pop by pop, not here, or ordering a large
	// burst would fill a feedback window by itself.
	d := 1
	for i := 1; i < w; i++ {
		if q.run[i].at != q.run[i-1].at {
			d++
		}
	}
	q.runCharge = 2 + d*d/(2*w)
	return true
}

// endRun dissolves the run. Whatever it still holds (nothing, when pop
// drained it) is filed back into its bucket, so callers that sweep or
// refile the bucket array find every pending entry there; its array is
// released.
func (q *calQueue) endRun() {
	if q.runDay == calNoRun {
		return
	}
	q.runDay, q.runTop = calNoRun, 0
	for i := q.runHead; i < len(q.run); i++ {
		q.place(q.run[i].e)
	}
	q.release(q.run)
	q.run, q.runHead = nil, 0
}

// runInsert files e at its ordered position in the run: appended when it
// sorts last, else found by binary search, with the entries after it moved
// up one. The moves are charged to the width feedback — a narrower day
// would not have held them.
func (q *calQueue) runInsert(e *event) {
	en := calEntry{at: e.at, akey: e.akey, seq: e.seq, e: e}
	e.idx = 0 // pending; a member's position is found by key, never stored
	n := len(q.run)
	if n == cap(q.run) && 16*q.runHead >= n && n > 0 {
		// Out of room with a sixteenth or more of it already popped: close
		// up instead of growing, so a day that refills as it drains reuses
		// its storage, at no more than 16 entries moved per slot regained.
		n = copy(q.run, q.run[q.runHead:])
		clear(q.run[n:])
		q.run, q.runHead = q.run[:n], 0
	}
	if n == cap(q.run) {
		q.run = q.roomier(q.run)
	}
	if n == q.runHead || !en.before(&q.run[n-1]) {
		q.run = append(q.run, en)
		return
	}
	i := q.runSearch(&en)
	q.run = append(q.run, calEntry{})
	copy(q.run[i+1:], q.run[i:n])
	q.run[i] = en
	q.bucketSteps += n - i
}

// runRemove unfiles a member: binary search for its key, then the shorter
// side of the run closes the gap. No other event is touched.
func (q *calQueue) runRemove(e *event) {
	en := calEntry{at: e.at, akey: e.akey, seq: e.seq}
	i := q.runSearch(&en)
	if i == len(q.run) || q.run[i].e != e {
		panic("sim: pending event missing from its ordered day")
	}
	if last := len(q.run) - 1; i-q.runHead < last-i {
		copy(q.run[q.runHead+1:i+1], q.run[q.runHead:i])
		q.run[q.runHead] = calEntry{}
		q.runHead++
	} else {
		copy(q.run[i:], q.run[i+1:])
		q.run[last] = calEntry{}
		q.run = q.run[:last]
	}
	e.idx = -1
	q.count--
}

// runSearch returns the position of the first live run entry that does not
// fire before en.
func (q *calQueue) runSearch(en *calEntry) int {
	i, _ := slices.BinarySearchFunc(q.run[q.runHead:], *en, calCompare)
	return q.runHead + i
}

// nextAt reports the earliest pending timestamp without removing anything.
// It advances the cursor past empty days exactly as pop would (idempotent
// under the cursor invariant) but leaves the width-feedback counters alone
// so probes between windows don't skew the retune loop. It never orders a
// day: a crowded one is scanned until a pop reaches it.
func (q *calQueue) nextAt() (Time, bool) {
	if q.count == 0 {
		return 0, false
	}
	for cycle := 0; cycle < len(q.buckets); cycle++ {
		if q.curTop == q.runTop && q.runHead < len(q.run) {
			return q.run[q.runHead].at, true
		}
		arr := q.buckets[q.curBkt]
		bestAt := q.curTop
		found := false
		for i := range arr {
			if arr[i].at < bestAt {
				bestAt = arr[i].at
				found = true
			}
		}
		if found {
			return bestAt, true
		}
		q.curBkt = (q.curBkt + 1) & q.mask
		q.curTop += q.width
	}
	q.endRun()
	var best Time
	first := true
	for _, arr := range q.buckets {
		for i := range arr {
			if first || arr[i].at < best {
				best = arr[i].at
				first = false
			}
		}
	}
	q.setCursor(uint64(best) >> q.shift)
	return best, true
}

// maybeRetune closes the width feedback loop once per window: if pop
// examined or moved many entries per day, days hold too much and the width
// halves; if it mostly walked empty days, days are too fine and the width
// doubles. Either way events are refiled in place — no bucket reallocation
// — and the counters restart, so a population whose density drifts (slot
// bursts draining into sparse idle stretches) converges within a window or
// two.
func (q *calQueue) maybeRetune() {
	if q.peeks < calRetuneWindow {
		return
	}
	// A burst of ties — every receiver's timer on one slot boundary — is
	// work no width can spread, and an ordered day does not charge it as
	// crowding (see startRun). What does read as crowding is what narrowing
	// fixes: light days scanned with several instants on them, ordered days
	// holding many distinct instants, and arms that land mid-run and move
	// the entries behind them.
	//
	// The empty-day signal is tested first. Widening is safe in every
	// regime — each empty day walked is pure overhead — whereas with both
	// counters high, halving first means halving forever.
	if q.dayAdvances > calRetuneScan*q.peeks {
		q.setShift(int(q.shift) + 1)
	} else if q.bucketSteps > calRetuneScan*q.peeks {
		q.setShift(int(q.shift) - 1)
	}
	q.peeks, q.bucketSteps, q.dayAdvances = 0, 0, 0
}

// setShift changes the day width to 1<<sh and refiles every event.
func (q *calQueue) setShift(sh int) {
	if sh < 0 {
		sh = 0
	}
	if uint(sh) == q.shift {
		return
	}
	q.endRun() // under the old width, which is what its day was cut by
	q.shift = uint(sh)
	q.width = 1 << q.shift
	q.refile(len(q.buckets))
}

// grow doubles the bucket count and re-seeds the day width from the
// population's observed mean inter-event spacing, the estimate the
// feedback loop then refines.
func (q *calQueue) grow() {
	q.endRun()
	var lo, hi Time
	first := true
	for _, arr := range q.buckets {
		for i := range arr {
			at := arr[i].at
			if first || at < lo {
				lo = at
			}
			if first || at > hi {
				hi = at
			}
			first = false
		}
	}
	if q.count > 1 && hi > lo {
		// Seed the width with the power of two nearest the mean spacing.
		w := (hi - lo) / Time(q.count-1)
		sh := 0
		for Time(1)<<(sh+1) <= w {
			sh++
		}
		q.shift = uint(sh)
		q.width = 1 << q.shift
	}
	q.refile(2 * len(q.buckets))
}

// refile redistributes every pending event under the current width into n
// buckets — the existing ones when n is unchanged, else a newly carved
// calendar; either way every borrowed array passes through the freelist and
// none is dropped — and leaves the cursor on the earliest event's day. Event
// pointers stay valid throughout — only their bkt/idx coordinates move —
// so a caller holding peek's result may still remove it afterwards. Callers
// dissolve the run first, before they change the width.
func (q *calQueue) refile(n int) {
	q.scratch = q.scratch[:0]
	var lo Time
	for bi, arr := range q.buckets {
		for i := range arr {
			if len(q.scratch) == 0 || arr[i].at < lo {
				lo = arr[i].at
			}
			q.scratch = append(q.scratch, arr[i])
		}
		q.vacate(bi)
	}
	if n != len(q.buckets) {
		q.carve(n)
	}
	for i := range q.scratch {
		q.place(q.scratch[i].e)
		q.scratch[i] = calEntry{}
	}
	if q.count > 0 {
		q.setCursor(uint64(lo) >> q.shift)
	}
}
