package core

import "deltasigma/internal/sim"

// guardFraction is how far into the next slot a receiver waits before
// evaluating a slot, so in-flight and queue-delayed packets of the slot can
// still arrive. It must cover the worst-case bottleneck queueing delay (two
// bandwidth-RTT products ≈ 160 ms at §5.1 settings) or queue-delayed
// packets read as losses, yet leave enough of the slot for the subscription
// message to reach the edge before the access slot starts (Figure 2): 0.8
// of a 250 ms FLID-DS slot leaves ~40 ms for the local round trip. It is
// spelled once, here, because the guard positions the shared per-slot
// event: two receivers disagreeing on it by a rounding step would silently
// stop sharing a driver.
const guardFraction = 0.8

// SlotDriver batches every slotted receiver that shares a slot clock —
// same slot duration, hence the same guard point — behind one
// scheduler event per slot. Before it existed each receiver armed its own
// timer at the common guard point, so a slot boundary cost one event pop per
// receiver; now the driver pops once and walks its member list, which is
// also what lets protocol packages keep per-receiver state in
// struct-of-arrays batches and touch it in one contiguous pass.
//
// Ordering is preserved exactly: at a shared guard instant the old
// per-receiver timers fired in the order the timers had last been armed
// (their tie-break seqs were reserved in arming order, and every fire
// re-armed with a fresh seq, so the relative order was stable from round
// to round). The member list reproduces that order — joins append,
// re-scheduling an already-active member moves it to the back, and the
// walk runs front to back — so every seeded run replays the same receiver
// evaluation sequence the timer-per-receiver design produced.
type SlotDriver struct {
	sched   *sim.Scheduler
	slotDur sim.Time
	guard   sim.Time

	timer     *sim.Timer
	members   []*SlotLoop
	armed     bool
	armedSlot uint32
	firing    bool
}

// slotClockKey anchors one driver per distinct slot duration on a
// scheduler: every slot clock starts at time zero.
type slotClockKey sim.Time

func driverFor(sched *sim.Scheduler, sess *Session) *SlotDriver {
	return sched.Anchor(slotClockKey(sess.SlotDur), func() any {
		d := &SlotDriver{sched: sched, slotDur: sess.SlotDur,
			guard: sim.Time(guardFraction * float64(sess.SlotDur))}
		d.timer = sched.NewTimer(d.fire)
		return d
	}).(*SlotDriver)
}

// evalAt is the guard point of slot: a guard interval into the next slot.
func (d *SlotDriver) evalAt(slot uint32) sim.Time {
	return sim.Time(slot+1)*d.slotDur + d.guard
}

// join makes l an active member waiting on l.nextSlot. An already-active
// member moves to the back of the walk order, exactly as its re-armed
// timer would have drawn a fresh (later) tie-break seq.
func (d *SlotDriver) join(l *SlotLoop) {
	if l.active {
		if !d.firing {
			for i, m := range d.members {
				if m == l {
					copy(d.members[i:], d.members[i+1:])
					d.members[len(d.members)-1] = l
					break
				}
			}
		}
	} else {
		l.active = true
		d.members = append(d.members, l)
	}
	if !d.armed || l.nextSlot < d.armedSlot {
		d.armedSlot = l.nextSlot
		d.armed = true
		d.timer.ResetAt(d.evalAt(l.nextSlot))
	}
}

// fire evaluates every member waiting on the armed slot, front to back,
// compacting out the ones whose eval reports the loop should stop.
// Members joining mid-fire (an eval starting another receiver) wait on a
// later slot — the guard point lies inside the following slot, so a
// fresh Schedule targets at least that slot — and are simply carried.
func (d *SlotDriver) fire() {
	slot := d.armedSlot
	d.armed = false
	d.firing = true
	keep := 0
	for i := 0; i < len(d.members); i++ {
		l := d.members[i]
		if l.nextSlot != slot {
			d.members[keep] = l
			keep++
			continue
		}
		if l.eval(slot) {
			l.nextSlot = slot + 1
			d.members[keep] = l
			keep++
		} else {
			l.active = false
		}
	}
	d.firing = false
	for i := keep; i < len(d.members); i++ {
		d.members[i] = nil
	}
	d.members = d.members[:keep]
	if len(d.members) == 0 {
		return
	}
	next := d.members[0].nextSlot
	for _, m := range d.members[1:] {
		if m.nextSlot < next {
			next = m.nextSlot
		}
	}
	d.armedSlot = next
	d.armed = true
	d.timer.ResetAt(d.evalAt(next))
}
