package core

import "deltasigma/internal/sim"

// SlotLoop drives a receiver's once-per-slot evaluation: every slotted
// receiver (FLID-DL, FLID-DS, replicated, threshold, cohort) evaluates the
// finished slot a guard interval into the next one, then advances. A
// SlotLoop is a membership handle on the SlotDriver shared by every loop
// with the same slot clock — one scheduler event per slot drives them all
// — so a receiver's whole lifetime costs no timer of its own.
type SlotLoop struct {
	driver   *SlotDriver
	eval     func(slot uint32) bool
	nextSlot uint32
	active   bool
}

// NewSlotLoop builds a loop evaluating sess's slots with eval, which
// receives the finished slot number and reports whether the loop should
// continue — a stopped receiver returns false and the loop goes quiet until
// the next Schedule call.
func NewSlotLoop(sched *sim.Scheduler, sess *Session, eval func(slot uint32) bool) *SlotLoop {
	return &SlotLoop{eval: eval, driver: driverFor(sched, sess)}
}

// Schedule arms evaluation of slot at its guard point by joining the
// shared driver. In the degenerate case where the guard point has already
// passed (never reached by Start or the loop itself, which always target
// the slot in progress or later), evaluation fires alone just past now,
// as the per-receiver timer it replaced did.
func (l *SlotLoop) Schedule(slot uint32) {
	d := l.driver
	if at := d.evalAt(slot); at <= d.sched.Now() && !l.active {
		d.sched.Schedule(d.sched.Now()+1, func() {
			if !l.active && l.eval(slot) {
				l.Schedule(slot + 1)
			}
		})
		return
	}
	l.nextSlot = slot
	d.join(l)
}

// SlotScratch is the reusable per-slot auth/counts pair every slotted
// sender fills at the top of its slot loop. Reusing the buffers is safe
// because every delta BeginSlot implementation copies what it keeps —
// a new instantiation that stored either slice would corrupt its previous
// slot's state the moment the next slot resets the scratch.
type SlotScratch struct {
	Auth   []bool
	Counts []int
}

// NewSlotScratch sizes the scratch for an n-group session.
func NewSlotScratch(n int) SlotScratch {
	return SlotScratch{Auth: make([]bool, n), Counts: make([]int, n)}
}

// Begin clears the authorization flags and returns both buffers for the
// slot; callers set Auth for authorized upgrades and overwrite every
// Counts entry.
func (s *SlotScratch) Begin() ([]bool, []int) {
	for i := range s.Auth {
		s.Auth[i] = false
	}
	return s.Auth, s.Counts
}
