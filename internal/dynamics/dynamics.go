// Package dynamics is the time-dynamics layer of the simulator: a
// deterministic Timeline of scripted mid-run events plus generators —
// Poisson membership churn and periodic link flapping — that drive
// reusable sim timers. The facade's typed events (receiver join/leave,
// attacker onset/stop, link re-parameterization) all resolve down to the
// primitives in this package, so there is exactly one mechanism for
// anything that happens after an experiment starts.
//
// Determinism rules (see DESIGN.md "Dynamics"):
//   - Timeline events are installed in declaration order; the scheduler's
//     insertion-stable tie-break then fires same-timestamp events in the
//     order they were declared.
//   - Generators draw all randomness from an RNG handed to them at
//     construction (forked from the experiment RNG at a fixed point), and
//     draw in a fixed per-fire order — target first, next gap second — so
//     a seeded run replays byte-identically whatever else the experiment
//     contains.
package dynamics

import (
	"fmt"

	"deltasigma/internal/sim"
)

// item is one scripted timeline entry.
type item struct {
	at sim.Time
	do func()
}

// Timeline accumulates scripted events before a run and installs them on
// the scheduler when the experiment starts. Events at the same virtual
// time fire in declaration order (the scheduler breaks timestamp ties by
// insertion order). A Timeline is single-use: Install panics when called
// twice, since re-installing would double-fire every event.
type Timeline struct {
	items     []item
	installed bool
}

// Add schedules do at virtual time at (clamped to zero when negative).
func (t *Timeline) Add(at sim.Time, do func()) {
	if at < 0 {
		at = 0
	}
	t.items = append(t.items, item{at: at, do: do})
}

// Len reports how many events the timeline carries.
func (t *Timeline) Len() int { return len(t.items) }

// Install schedules every accumulated event on sched, in declaration
// order, and marks the timeline installed.
func (t *Timeline) Install(sched *sim.Scheduler) {
	if t.installed {
		panic("dynamics: Timeline installed twice")
	}
	t.installed = true
	for _, it := range t.items {
		at := it.at
		if at < sched.Now() {
			at = sched.Now()
		}
		sched.Schedule(at, it.do)
	}
}

// Churn is a Poisson membership-churn generator: toggle events arrive as a
// Poisson process at Rate events per second across a set of n targets, and
// each event toggles one uniformly chosen target. The facade points toggle
// at a receiver's join/leave pair; the generator itself knows nothing
// about receivers.
type Churn struct {
	sched  *sim.Scheduler
	rng    *sim.RNG
	rate   float64 // expected toggles per second across the whole set
	until  sim.Time
	n      int
	toggle func(i int)
	timer  *sim.Timer

	// Events counts toggles fired so far.
	Events uint64
}

// NewChurn builds a churn generator over n targets firing toggle at Rate
// events per second until the until horizon. It panics on a non-positive
// rate or target count — a silent zero-event generator would make a sweep
// point lie about its churn axis.
func NewChurn(sched *sim.Scheduler, rng *sim.RNG, rate float64, until sim.Time, n int, toggle func(i int)) *Churn {
	if rate <= 0 {
		panic(fmt.Sprintf("dynamics: churn rate %v must be positive", rate))
	}
	if n <= 0 {
		panic(fmt.Sprintf("dynamics: churn over %d targets", n))
	}
	c := &Churn{sched: sched, rng: rng, rate: rate, until: until, n: n, toggle: toggle}
	c.timer = sched.NewTimer(c.fire)
	return c
}

// Stop halts the generator: the pending toggle (if any) is cancelled and no
// further events fire. StopTraffic uses this so a drain is not re-seeded by
// churn whose window outlives the stop.
func (c *Churn) Stop() { c.timer.Stop() }

// gap draws the next exponential interarrival.
func (c *Churn) gap() sim.Time {
	g := sim.Seconds(c.rng.ExpFloat64() / c.rate)
	if g < 1 {
		g = 1 // keep virtual time strictly advancing
	}
	return g
}

// Start arms the first event at from plus one exponential gap. Events past
// the until horizon are not fired.
func (c *Churn) Start(from sim.Time) {
	if from < c.sched.Now() {
		from = c.sched.Now()
	}
	at := from + c.gap()
	if at > c.until {
		return
	}
	c.timer.ResetAt(at)
}

// fire toggles one uniformly drawn target and re-arms. Draw order is
// fixed — target first, next gap second — for seeded reproducibility.
func (c *Churn) fire() {
	i := c.rng.IntN(c.n)
	c.Events++
	c.toggle(i)
	at := c.sched.Now() + c.gap()
	if at > c.until {
		return
	}
	c.timer.ResetAt(at)
}

// Flapper drives periodic down/up cycles on anything with a two-state
// lifecycle — the facade points it at a link's Down/Up pair. Each period
// the target goes down at the period boundary and comes back up a tenth of
// the period later. The up transition always fires, even past the horizon,
// so a flapped link is never left dangling down at the end of a run.
type Flapper struct {
	sched   *sim.Scheduler
	period  sim.Time
	downFor sim.Time
	until   sim.Time
	down    func()
	up      func()
	timer   *sim.Timer
	isDown  bool

	// Flaps counts completed down transitions.
	Flaps uint64
}

// flapDown is how long a flapped target stays down in each period: a tenth
// of it. A period too short to give a positive down time cannot flap.
func flapDown(period sim.Time) sim.Time { return period / 10 }

// NewFlapper builds a flapper cycling with the given period until the until
// horizon. It refuses a period too short to give a positive down time.
func NewFlapper(sched *sim.Scheduler, period, until sim.Time, down, up func()) (*Flapper, error) {
	downFor := flapDown(period)
	if downFor <= 0 {
		return nil, fmt.Errorf("flap period %v leaves no down time", period)
	}
	f := &Flapper{sched: sched, period: period, downFor: downFor, until: until, down: down, up: up}
	f.timer = sched.NewTimer(f.fire)
	return f, nil
}

// Start arms the first down transition one period after from.
func (f *Flapper) Start(from sim.Time) {
	if from < f.sched.Now() {
		from = f.sched.Now()
	}
	at := from + f.period
	if at > f.until {
		return
	}
	f.timer.ResetAt(at)
}

// FlapInstants computes, without running anything, the exact down and up
// transition times a Flapper with the same parameters would fire when
// started at from. The adaptive-attacker scheduler uses it to time
// inflation bursts to flap recoveries; keeping it next to Flapper.fire
// makes the two trivially comparable, and a unit test pins that they
// agree. Mirrors Flapper semantics exactly: the first down lands one full
// period after from, downs past the until horizon are dropped, and every
// fired down's matching up is included even when it falls past until.
func FlapInstants(period, from, until sim.Time) (downs, ups []sim.Time) {
	downFor := flapDown(period)
	if downFor <= 0 {
		return nil, nil
	}
	for t := from + period; t <= until; t += period {
		downs = append(downs, t)
		ups = append(ups, t+downFor)
	}
	return downs, ups
}

// fire alternates down and up transitions on the single reusable timer.
func (f *Flapper) fire() {
	if !f.isDown {
		f.isDown = true
		f.Flaps++
		f.down()
		// The matching up is unconditional: never strand the target down.
		f.timer.Reset(f.downFor)
		return
	}
	f.isDown = false
	f.up()
	at := f.sched.Now() + f.period - f.downFor
	if at > f.until {
		return
	}
	f.timer.ResetAt(at)
}
