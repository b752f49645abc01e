// Package dynamics is the time-dynamics layer of the simulator: a
// deterministic Timeline of scripted mid-run events, the Poisson
// membership-churn generator, and FlapInstants, which lists the transitions
// of a periodically flapped link. The facade's typed events (receiver
// join/leave, attacker onset/stop, link re-parameterization and flapping)
// all resolve to Timeline entries, so there is exactly one mechanism for
// anything scheduled after an experiment starts; Churn alone re-arms its
// own timer, because its instants are drawn as it runs.
//
// Determinism rules (see DESIGN.md "Dynamics"):
//   - Timeline events are installed in declaration order; the scheduler's
//     insertion-stable tie-break then fires same-timestamp events in the
//     order they were declared.
//   - Churn draws all randomness from an RNG handed to it at construction
//     (forked from the experiment RNG at a fixed point), and draws in a
//     fixed per-fire order — target first, next gap second — so a seeded
//     run replays byte-identically whatever else the experiment contains.
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

// maxFlaps bounds the cycles one flap may list: all its instants are
// scheduled when the run starts, so a period far shorter than its window
// would otherwise allocate without bound.
const maxFlaps = 1 << 20

// FlapInstants lists the down and up transitions of a target flapped with
// the given period over [from, until]: the first down lands one full
// period after from (clamped at zero, where a run starts), every later
// down one period after the one before, downs past until are dropped, and
// each down's matching up, a tenth of the period later, is kept even past
// until, so a flapped target is never stranded down. The facade installs
// these instants on the timeline and the adaptive attacker times its
// bursts off the same ups. A period too short to give a positive down
// time, or to fit at most maxFlaps cycles in the window, is an error.
func FlapInstants(period, from, until sim.Time) (downs, ups []sim.Time, err error) {
	downFor := period / 10
	if downFor <= 0 {
		return nil, nil, fmt.Errorf("flap period %v leaves no down time", period)
	}
	from = max(from, 0)
	n := max((until-from)/period, 0)
	if n > maxFlaps {
		return nil, nil, fmt.Errorf("flap period %v cycles %d times in [%v,%v], more than %d", period, n, from, until, maxFlaps)
	}
	downs, ups = make([]sim.Time, n), make([]sim.Time, n)
	for i := range downs {
		downs[i] = from + sim.Time(i+1)*period
		ups[i] = downs[i] + downFor
	}
	return downs, ups, nil
}
