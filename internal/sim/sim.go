// Package sim provides the deterministic discrete-event simulation engine
// that underlies every experiment in this repository. It replaces the role
// NS-2 plays in the paper: a virtual clock, an event scheduler with stable
// ordering, cancellable timers, and seeded pseudo-randomness.
//
// All simulated components (links, queues, protocol endpoints) schedule
// closures on a single Scheduler. Execution is single-threaded and fully
// deterministic: two events at the same virtual time fire in the order they
// were scheduled. Determinism is what makes the integration tests and the
// figure-regeneration harness reproducible down to the packet.
//
// The hot path is allocation-free in steady state: fired and stopped events
// return to a per-scheduler freelist and are recycled by later Schedule/At
// calls, and a Timer can be re-armed in place with Reset so periodic and
// retransmission timers reuse one event for their whole lifetime. Timer
// handles are generation-guarded, so a handle to a fired-and-recycled event
// safely reads as inactive instead of resurrecting someone else's event.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: simulated time has
// no epoch and never relates to the wall clock.
type Time int64

// Common virtual durations, re-exported for readability at call sites.
const (
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a virtual Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Duration converts a time.Duration into a virtual Time span.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Sec reports t as a floating-point number of seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// String renders the timestamp in seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Sec()) }

// event is a scheduled closure. Ties between events with equal timestamps
// break on (akey, seq): akey is the virtual instant the event was armed (or
// its seq reserved) and seq the global arming order. In a single-scheduler
// run the akey comparison is redundant — seq is monotone in arming order,
// and arming instants are monotone in seq — so ordering degenerates to the
// insertion-stable (at, seq) order the goldens were pinned under. The akey
// matters for sharded runs: a cross-shard delivery is re-filed into the
// destination scheduler with a fresh local seq but carries the sender-side
// reservation instant as its akey, which reproduces exactly the tie-break a
// single serial scheduler would have computed from its global seq.
type event struct {
	at   Time
	akey Time
	seq  uint64
	do   func()
	// bkt and idx locate the event inside the calendar queue: the bucket
	// it is filed in and its position within that bucket. idx is -1 once
	// popped or removed. An event is pending if and only if idx >= 0:
	// Timer.Stop removes its event from the calendar immediately, so no
	// dead events ever drain through the run loop. While the event's day is
	// the calendar's ordered run it is filed there, found by its key, and
	// idx says only that it is pending.
	bkt int
	idx int
	// gen counts how many times this event object has been recycled through
	// the scheduler freelist. A Timer snapshots gen when it arms; a mismatch
	// means the event fired (or was stopped) and now belongs to someone else,
	// so the handle is stale and must not touch it.
	gen uint64
}

// Scheduler is the event loop of the simulation. The zero value is not
// usable; construct with NewScheduler.
type Scheduler struct {
	cal     calQueue
	free    []*event // recycled events, reused by alloc
	now     Time
	seq     uint64
	stopped bool
	fired   uint64
	anchors map[any]any // per-scheduler singletons, see Anchor
}

// NewScheduler returns an empty scheduler positioned at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have executed so far, a cheap progress and
// load metric used by benchmarks.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many live events are queued. Stopped timers leave
// the calendar immediately and are not counted.
func (s *Scheduler) Pending() int { return s.cal.count }

// Anchor returns the per-scheduler singleton stored under key, creating it
// with mk on first use. Layers above the engine hang shared machinery off
// the scheduler that owns the experiment — a clock's slot driver, a
// session's receiver batch — without global registries that would leak
// state across concurrently running experiments. Keys follow the
// context.Value convention: an unexported comparable type per caller.
func (s *Scheduler) Anchor(key any, mk func() any) any {
	if s.anchors == nil {
		s.anchors = make(map[any]any)
	}
	v, ok := s.anchors[key]
	if !ok {
		v = mk()
		s.anchors[key] = v
	}
	return v
}

// FreeEvents reports how many recycled events sit on the freelist — steady
// state keeps this roughly constant while alloc traffic drops to zero.
func (s *Scheduler) FreeEvents() int { return len(s.free) }

// alloc produces a pending event at time t running f, reusing a recycled
// event when one is available, and files it into the calendar.
func (s *Scheduler) alloc(t Time, f func()) *event {
	return s.allocRes(t, f, s.Reserve())
}

// allocRes is alloc with an explicit tie-break reservation (already made).
func (s *Scheduler) allocRes(t Time, f func(), r Reservation) *event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.at = t
		e.do = f
	} else {
		e = &event{at: t, do: f}
	}
	e.akey = r.Akey
	e.seq = r.Seq
	s.cal.insert(e)
	return e
}

// recycle returns a popped or removed event to the freelist. Bumping gen
// invalidates every Timer handle still pointing at the event; clearing do
// drops the closure so recycled events pin no captured state.
func (s *Scheduler) recycle(e *event) {
	e.gen++
	e.do = nil
	s.free = append(s.free, e)
}

// Reservation is a tie-break key handed out by Reserve: the virtual instant
// the reservation was made plus the scheduler-local arming sequence. Events
// with equal timestamps fire in (Akey, Seq) order.
type Reservation struct {
	Akey Time
	Seq  uint64
}

// Reserve hands out the next tie-break reservation without scheduling
// anything. Components that keep their own FIFO of future work (a link's
// in-flight delivery pipeline) reserve at the moment the work is created,
// then arm a single reusable timer per item via Timer.ResetReserved —
// firing order is then identical to scheduling every item individually.
func (s *Scheduler) Reserve() Reservation {
	seq := s.seq
	s.seq++
	return Reservation{Akey: s.now, Seq: seq}
}

// At schedules f to run at absolute virtual time t and returns a cancellable
// handle. Scheduling in the past panics: it is always a logic error in a
// discrete-event model. Hot paths that never cancel should use Schedule,
// which allocates no handle.
func (s *Scheduler) At(t Time, f func()) *Timer {
	e := s.alloc(t, f)
	return &Timer{sched: s, do: f, ev: e, gen: e.gen}
}

// After schedules f to run d after the current virtual time.
func (s *Scheduler) After(d Time, f func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, f)
}

// Schedule runs f at absolute virtual time t, fire-and-forget: no Timer
// handle is allocated, and the event comes from the freelist in steady
// state, so a Schedule costs zero allocations beyond f's own closure.
func (s *Scheduler) Schedule(t Time, f func()) {
	s.alloc(t, f)
}

// ScheduleKeyed schedules f at absolute time t with an explicit tie-break
// akey instead of the current clock. The shard coordinator uses it to file
// cross-shard deliveries under their sender-side reservation instant, so a
// delivery competes in the destination scheduler exactly as it would have
// in a single serial scheduler. akey must not exceed t. The event still
// takes a fresh seq from this scheduler, so its (t, akey, seq) key is
// unique among pending events whatever akey the caller passes.
func (s *Scheduler) ScheduleKeyed(t, akey Time, f func()) {
	r := Reservation{Akey: akey, Seq: s.seq}
	s.seq++
	s.allocRes(t, f, r)
}

// NextAt reports the timestamp of the earliest pending event, or false
// when the queue is empty — the probe the shard coordinator anchors each
// conservative window on.
func (s *Scheduler) NextAt() (Time, bool) { return s.cal.nextAt() }

// ScheduleAfter runs f a duration d after the current virtual time,
// fire-and-forget.
func (s *Scheduler) ScheduleAfter(d Time, f func()) {
	if d < 0 {
		d = 0
	}
	s.alloc(s.now+d, f)
}

// NewTimer returns an unarmed timer that runs f when armed with Reset. One
// NewTimer at setup plus Reset per cycle is the allocation-free replacement
// for repeated After calls.
func (s *Scheduler) NewTimer(f func()) *Timer {
	return &Timer{sched: s, do: f}
}

// MakeTimer returns an unarmed timer by value, for embedding in a component
// struct. The returned Timer must not be copied once armed.
func (s *Scheduler) MakeTimer(f func()) Timer {
	return Timer{sched: s, do: f}
}

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// RunUntil executes events in timestamp order until the queue drains, the
// clock passes limit, or Stop is called. The clock is left at the timestamp
// of the last executed event, or at limit when the horizon is reached with
// events still pending.
func (s *Scheduler) RunUntil(limit Time) { s.run(true, limit) }

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() { s.run(false, 0) }

// run is the single pop-execute-recycle loop behind Run and RunUntil, so
// both share freelist and clock semantics exactly.
func (s *Scheduler) run(bounded bool, limit Time) {
	s.stopped = false
	for s.cal.count > 0 && !s.stopped {
		e := s.cal.pop(bounded, limit)
		if e == nil {
			// Bounded mode: the earliest event lies past the horizon and
			// was left queued.
			s.now = limit
			return
		}
		s.now = e.at
		s.fired++
		do := e.do
		// Recycle before running: the event is immediately reusable by
		// anything do schedules, and the gen bump marks every outstanding
		// handle to it stale.
		s.recycle(e)
		do()
	}
	if bounded && s.now < limit && !s.stopped {
		s.now = limit
	}
}

// Timer is a handle to a scheduled event, allowing cancellation and in-place
// rescheduling — the shape TCP retransmission timers need. A timer created
// by NewTimer or MakeTimer starts unarmed and is armed with Reset; a timer
// returned by At or After is already armed with that call's function.
type Timer struct {
	sched *Scheduler
	do    func()
	ev    *event
	gen   uint64
}

// valid reports whether the handle still owns a pending event: the event
// must not have been recycled out from under it (gen match) and must still
// sit in the calendar.
func (t *Timer) valid() bool {
	return t != nil && t.ev != nil && t.gen == t.ev.gen && t.ev.idx >= 0
}

// Stop cancels the timer. It is safe to call on a nil handle, repeatedly,
// and after the event fired — a stale handle is a no-op, never a cancellation
// of whatever the recycled event runs now. It reports whether the event was
// still pending.
//
// The event is removed from the scheduler's calendar immediately and
// recycled — cancelled timers do not linger until their timestamp drains,
// so workloads that set and cancel many timers (TCP retransmission) keep
// Pending() proportional to live events only, and removal itself is O(1),
// a swap with the last event in the same calendar bucket — or, when the
// event's day is the crowded one being drained in order, a binary search
// on its key. Neither touches any other event.
func (t *Timer) Stop() bool {
	if !t.valid() {
		if t != nil {
			t.ev = nil
		}
		return false
	}
	t.sched.cal.remove(t.ev)
	t.sched.recycle(t.ev)
	t.ev = nil
	return true
}

// Active reports whether the event is still pending. Fired, stopped, and
// recycled events all read as inactive.
func (t *Timer) Active() bool { return t.valid() }

// When returns the virtual time the timer is set to fire at, or 0 when the
// timer is not Active — a stale handle never reads a recycled event's time.
func (t *Timer) When() Time {
	if !t.valid() {
		return 0
	}
	return t.ev.at
}

// Reset arms the timer to run its function d after the current virtual time.
// An active timer keeps its event object and is simply refiled into the
// calendar bucket owning the new timestamp — no allocation, one removal and
// one insert as Stop and At would do them; an inactive one is re-armed from
// the freelist. Negative d
// clamps to zero. The timer must have a function (from NewTimer, MakeTimer,
// At or After).
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.sched.now + d)
}

// ResetAt arms the timer to run its function at absolute virtual time at,
// rescheduling in place when the timer is active. Like At, arming in the
// past panics.
func (t *Timer) ResetAt(at Time) {
	t.resetAt(at, t.sched.Reserve())
}

// ResetReserved arms the timer at absolute time at with a tie-break
// reservation previously obtained from Scheduler.Reserve. This lets a
// component that queues future work in its own FIFO fire each item exactly
// where an individually scheduled event would have fired — the deterministic
// replay guarantee survives the pooling.
//
// The calendar relies on (at, Akey, Seq) being unique among pending events:
// it finds a member of a crowded day by that key. Every other way of arming
// draws a fresh Seq, so the scheduler guarantees it there; here the caller
// does, by arming at most one pending event per reservation at a time — one
// reservation per queued item, one timer on the head item, as the link
// flight ring, the group emitters and the SIGMA announcer do.
func (t *Timer) ResetReserved(at Time, r Reservation) {
	t.resetAt(at, r)
}

func (t *Timer) resetAt(at Time, r Reservation) {
	if t.do == nil {
		panic("sim: Reset on a timer with no function")
	}
	if t.valid() {
		if at < t.sched.now {
			panic(fmt.Sprintf("sim: resetting to %v before now %v", at, t.sched.now))
		}
		t.sched.cal.remove(t.ev)
		t.ev.at = at
		t.ev.akey = r.Akey
		t.ev.seq = r.Seq
		t.sched.cal.insert(t.ev)
		return
	}
	e := t.sched.allocRes(at, t.do, r)
	t.ev = e
	t.gen = e.gen
}
