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
// shared driver. Every caller schedules the slot in progress (or the loop
// the next one), whose guard point lies ahead, in the following slot.
func (l *SlotLoop) Schedule(slot uint32) {
	l.nextSlot = slot
	l.driver.join(l)
}
