package deltasigma

import (
	"fmt"

	"deltasigma/internal/dynamics"
	"deltasigma/internal/netsim"
)

// TimelineEvent is a typed mid-run event scripted against virtual time.
// Events are declared up front, through WithTimeline, which checks their
// values (New refuses a bad rate, window, capacity, delay or flap period),
// and resolved against the wired experiment when it starts: session,
// receiver and link references are symbolic indices until then, so a timeline can be built
// before any session exists (and by code, like Sweep, that never sees the
// concrete objects). Events at the same virtual time fire in declaration
// order. The timeline is the one way to schedule anything after Start; a
// test that needs a raw closure schedules it on Topo.Scheduler() directly.
//
// The built-in events cover the three families of change the paper's
// robustness story is about: membership churn (ReceiverJoin, ReceiverLeave,
// PoissonChurn), attacker lifecycle (AttackerOnset, AttackerStop), and
// path dynamics (LinkSetCapacity, LinkSetDelay, LinkDown, LinkUp,
// LinkFlap).
type TimelineEvent interface {
	// resolve resolves the event's references against the started
	// experiment and installs its actions on the experiment timeline;
	// checkValues has already passed its values.
	resolve(e *Experiment) error
}

// checkValues states the range of every value a timeline event carries:
// a churn's rate and window, a capacity, a delay, a flap's period (through
// dynamics.FlapInstants, the instants the flap will install) and window.
// WithTimeline refuses an event that breaks one, so New returns the error;
// the references an event names resolve at Start.
func checkValues(ev TimelineEvent) error {
	switch ev := ev.(type) {
	case nil:
		return fmt.Errorf("WithTimeline(nil event)")
	case PoissonChurn:
		if ev.Rate <= 0 {
			return fmt.Errorf("PoissonChurn: rate %v must be positive", ev.Rate)
		}
		if ev.To <= ev.From {
			return fmt.Errorf("PoissonChurn: window [%v,%v) is empty", ev.From, ev.To)
		}
	case LinkSetCapacity:
		if ev.Bps <= 0 {
			return fmt.Errorf("LinkSetCapacity: %d bits/s must be positive", ev.Bps)
		}
	case LinkSetDelay:
		if ev.Delay < 0 {
			return fmt.Errorf("LinkSetDelay: delay %v is negative", ev.Delay)
		}
	case LinkFlap:
		if _, _, err := dynamics.FlapInstants(ev.Period, ev.From, ev.To); err != nil {
			return fmt.Errorf("LinkFlap: %w", err)
		}
		if ev.To <= ev.From {
			return fmt.Errorf("LinkFlap: window [%v,%v) is empty", ev.From, ev.To)
		}
	}
	return nil
}

// ReceiverJoin (re)starts a receiver mid-run: it joins the session at the
// minimal level through its protocol's control path (IGMP or SIGMA
// session-join). Session and Receiver are 1-based, matching labels like
// S1R2. Joining an already-joined receiver is a no-op.
type ReceiverJoin struct {
	At       Time
	Session  int
	Receiver int
}

func (ev ReceiverJoin) resolve(e *Experiment) error {
	r, err := e.receiverRef("ReceiverJoin", ev.Session, ev.Receiver)
	if err != nil {
		return err
	}
	e.timeline.Add(ev.At, r.Start)
	return nil
}

// ReceiverLeave stops a receiver mid-run: it leaves every subscribed group
// (graft/prune churn under load) while its packets may still be queued or
// in flight — deliveries already committed drain normally. Leaving an
// already-left receiver is a no-op.
type ReceiverLeave struct {
	At       Time
	Session  int
	Receiver int
}

func (ev ReceiverLeave) resolve(e *Experiment) error {
	r, err := e.receiverRef("ReceiverLeave", ev.Session, ev.Receiver)
	if err != nil {
		return err
	}
	e.timeline.Add(ev.At, r.Stop)
	return nil
}

// AttackerOnset launches the inflated-subscription attack mid-session —
// the paper's core threat. Receiver selects one attacker (1-based); zero
// means every attacker in the session. Resolution fails if a selected
// receiver was not added with AddAttacker.
type AttackerOnset struct {
	At       Time
	Session  int
	Receiver int
}

func (ev AttackerOnset) resolve(e *Experiment) error {
	rs, err := e.attackerRefs("AttackerOnset", ev.Session, ev.Receiver)
	if err != nil {
		return err
	}
	for _, r := range rs {
		e.timeline.Add(ev.At, r.Inflate)
	}
	return nil
}

// AttackerStop calls an attack off mid-session: IGMP inflation joins are
// withdrawn and (for protected variants) the key-guessing loop goes quiet,
// while the attacker's legitimate receiver keeps its entitled share.
// Receiver zero means every attacker in the session.
type AttackerStop struct {
	At       Time
	Session  int
	Receiver int
}

func (ev AttackerStop) resolve(e *Experiment) error {
	rs, err := e.attackerRefs("AttackerStop", ev.Session, ev.Receiver)
	if err != nil {
		return err
	}
	for _, r := range rs {
		e.timeline.Add(ev.At, r.Deflate)
	}
	return nil
}

// PoissonChurn drives session-membership churn: toggle events arrive as a
// Poisson process at Rate events per second across the session's
// well-behaved population (attackers are exempt — churning them would blur
// the suppression statistics), each toggling one uniformly chosen member
// between joined and left. Cohort members count individually: a cohort of
// n carries n times the toggle weight of a single receiver, so aggregated
// and exact populations churn at the same per-member rate. Randomness
// forks from the experiment RNG when the experiment starts, so a seeded
// run replays exactly.
type PoissonChurn struct {
	Session  int
	Rate     float64 // expected toggles/second across the member set
	From, To Time    // active window
}

// churnTarget is one uniformly toggleable slice of a session's honest
// population: n members behind one toggle function taking a member index.
type churnTarget struct {
	n      uint64
	toggle func(idx uint64)
}

func (ev PoissonChurn) resolve(e *Experiment) error {
	s, err := e.sessionRef("PoissonChurn", ev.Session)
	if err != nil {
		return err
	}
	var targets []churnTarget
	var total uint64
	for _, r := range s.Receivers {
		if r.Attacker() {
			continue
		}
		r := r
		targets = append(targets, churnTarget{n: 1, toggle: func(uint64) {
			if r.Joined() {
				r.Stop()
			} else {
				r.Start()
			}
		}})
		total++
	}
	for _, c := range s.Cohorts {
		targets = append(targets, churnTarget{n: c.Members(), toggle: c.Toggle})
		total += c.Members()
	}
	if total == 0 {
		return fmt.Errorf("PoissonChurn: session %d has no well-behaved receivers", ev.Session)
	}
	if total > uint64(int(^uint(0)>>1)) {
		return fmt.Errorf("PoissonChurn: session %d population %d overflows the toggle index", ev.Session, total)
	}
	sched := e.Topo.Scheduler()
	c := dynamics.NewChurn(sched, e.Topo.Rand().Fork(), ev.Rate, ev.To, int(total), func(i int) {
		idx := uint64(i)
		for _, t := range targets {
			if idx < t.n {
				t.toggle(idx)
				return
			}
			idx -= t.n
		}
	})
	e.churns = append(e.churns, c)
	c.Start(ev.From)
	return nil
}

// LinkSetCapacity re-rates a bottleneck link mid-run (degradation or
// upgrade). Link indexes Topo.Bottlenecks(); a packet already serializing
// completes on the old timing.
type LinkSetCapacity struct {
	At   Time
	Link int
	Bps  int64
}

func (ev LinkSetCapacity) resolve(e *Experiment) error {
	l, err := e.bottleneckRef("LinkSetCapacity", ev.Link)
	if err != nil {
		return err
	}
	e.timeline.Add(ev.At, func() { l.SetRate(ev.Bps) })
	return nil
}

// LinkSetDelay changes a bottleneck's propagation delay mid-run. In-flight
// packets keep their delivery times; the FIFO pipeline never reorders.
type LinkSetDelay struct {
	At    Time
	Link  int
	Delay Time
}

func (ev LinkSetDelay) resolve(e *Experiment) error {
	l, err := e.bottleneckRef("LinkSetDelay", ev.Link)
	if err != nil {
		return err
	}
	e.timeline.Add(ev.At, func() { l.SetDelay(ev.Delay) })
	return nil
}

// LinkDown takes a bottleneck down mid-run: queued and in-flight packets
// are discarded (released back to the pool) and arrivals are dropped until
// a LinkUp.
type LinkDown struct {
	At   Time
	Link int
}

func (ev LinkDown) resolve(e *Experiment) error {
	l, err := e.bottleneckRef("LinkDown", ev.Link)
	if err != nil {
		return err
	}
	e.timeline.Add(ev.At, l.Down)
	return nil
}

// LinkUp brings a downed bottleneck back.
type LinkUp struct {
	At   Time
	Link int
}

func (ev LinkUp) resolve(e *Experiment) error {
	l, err := e.bottleneckRef("LinkUp", ev.Link)
	if err != nil {
		return err
	}
	e.timeline.Add(ev.At, l.Up)
	return nil
}

// LinkFlap cycles a bottleneck down and up: every Period the link goes
// down and comes back a tenth of the Period later, the first down one
// Period after From (a negative From counts from zero). Each down and up
// is one timeline entry; the up transition always fires, even past To, so
// a flapped link is never stranded down.
type LinkFlap struct {
	Link     int
	Period   Time
	From, To Time
}

func (ev LinkFlap) resolve(e *Experiment) error {
	l, err := e.bottleneckRef("LinkFlap", ev.Link)
	if err != nil {
		return err
	}
	downs, ups, _ := dynamics.FlapInstants(ev.Period, ev.From, ev.To) // checkValues refused a bad period
	down, up := l.Down, l.Up
	for i := range downs {
		e.timeline.Add(downs[i], down)
		e.timeline.Add(ups[i], up)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Experiment wiring.

// ChurnEvents totals membership toggles fired by PoissonChurn generators
// so far.
func (e *Experiment) ChurnEvents() uint64 {
	var n uint64
	for _, c := range e.churns {
		n += c.Events
	}
	return n
}

// resolveEvents resolves and installs the declared timeline. Called once
// from Start; errors panic there — by Start time a bad index is a wiring
// bug exactly like AddReceiver on a started experiment.
func (e *Experiment) resolveEvents() error {
	for _, ev := range e.events {
		if err := ev.resolve(e); err != nil {
			return err
		}
	}
	return nil
}

func (e *Experiment) sessionRef(op string, idx int) (*ExperimentSession, error) {
	if idx < 1 || idx > len(e.sessions) {
		return nil, fmt.Errorf("%s: session %d outside 1..%d", op, idx, len(e.sessions))
	}
	return e.sessions[idx-1], nil
}

func (e *Experiment) receiverRef(op string, sess, idx int) (*Receiver, error) {
	s, err := e.sessionRef(op, sess)
	if err != nil {
		return nil, err
	}
	if idx < 1 || idx > len(s.Receivers) {
		return nil, fmt.Errorf("%s: receiver %d outside 1..%d of session %d", op, idx, len(s.Receivers), sess)
	}
	return s.Receivers[idx-1], nil
}

// attackerRefs resolves one attacker (idx >= 1) or every attacker in the
// session (idx == 0).
func (e *Experiment) attackerRefs(op string, sess, idx int) ([]*Receiver, error) {
	s, err := e.sessionRef(op, sess)
	if err != nil {
		return nil, err
	}
	if idx != 0 {
		r, err := e.receiverRef(op, sess, idx)
		if err != nil {
			return nil, err
		}
		if !r.Attacker() {
			return nil, fmt.Errorf("%s: receiver %s is not an attacker", op, r.Label())
		}
		return []*Receiver{r}, nil
	}
	var out []*Receiver
	for _, r := range s.Receivers {
		if r.Attacker() {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: session %d has no attackers", op, sess)
	}
	return out, nil
}

func (e *Experiment) bottleneckRef(op string, idx int) (*netsim.Link, error) {
	links := e.Topo.Bottlenecks()
	if idx < 0 || idx >= len(links) {
		return nil, fmt.Errorf("%s: link %d outside 0..%d", op, idx, len(links)-1)
	}
	return links[idx], nil
}
