// Package fuzzing is the deterministic scenario fuzzer: a seeded generator
// that composes random-but-valid topologies, protocol variants, receiver
// and attacker populations, cross traffic and timelines into experiment
// specifications; a runner that executes each one under the full
// invariant-audit layer on the campaign worker pool; and a shrinker that
// reduces a failing specification to a minimal reproducer.
//
// The same Spec machinery also powers the adversarial attack optimizer
// behind `dsim hunt` (Hunt, GenerateHunt, Mutate, EvaluateAdvantage,
// ShrinkHunt): an elitist evolutionary search whose fitness is attacker
// advantage — best attacker throughput over honest median inside the
// suppression-oracle window — over mutations of timelines, topologies,
// populations, schedule depth and attacker strategy. Where the fuzzer
// samples the scenario space for invariant violations, the hunt climbs
// it for worst cases, and shrinks the winners into exhibit-sized repros.
//
// Everything is reproducible by construction: a Spec is a pure function of
// its seed, an Outcome is a pure function of its Spec (experiments are
// single-threaded and seeded), and campaign results are stored by seed
// index — so fuzz campaigns and hunt reports alike are byte-identical at
// any worker count, and a failure replays from its JSON repro file alone.
package fuzzing

import (
	"fmt"

	"deltasigma"
	"deltasigma/internal/sim"
)

// Spec is a fully serializable description of one generated scenario. It
// is the unit the fuzzer generates, runs, shrinks and writes into repro
// files; Options and Wire turn it back into a live experiment.
type Spec struct {
	// Seed drives the experiment's own randomness (topology RNG, DELTA
	// keys, churn draws) — for generated specs it equals the fuzz seed.
	Seed     uint64                  `json:"seed"`
	Protocol string                  `json:"protocol"`
	Topology deltasigma.TopologySpec `json:"topology"`
	// Groups overrides the rate schedule's group count (0 = the protocol
	// default schedule).
	Groups      int           `json:"groups,omitempty"`
	DurationSec float64       `json:"duration_sec"`
	Sessions    []SessionSpec `json:"sessions"`
	// TCP is the number of TCP Reno competitors (staggered starts).
	TCP int `json:"tcp,omitempty"`
	// CBRFraction, when positive, adds duty-cycled CBR cross traffic at
	// this fraction of the narrowest bottleneck.
	CBRFraction float64 `json:"cbr_fraction,omitempty"`
	// NoConsolidation disables hierarchical feedback consolidation, so
	// cohort scenarios exercise both the merged and the raw reporting path.
	NoConsolidation bool `json:"no_consolidation,omitempty"`
	// Events is the scripted timeline, in declaration order.
	Events []EventSpec `json:"events,omitempty"`
	// Oracle, when set, arms the suppression oracle for the run. The
	// generator only sets it for scenarios where the paper's claim is
	// expected to hold unconditionally (protected variant, attacked
	// session undisturbed by churn, stable links).
	Oracle *OracleSpec `json:"oracle,omitempty"`
}

// SessionSpec is one multicast session's receiver population.
type SessionSpec struct {
	Receivers []ReceiverSpec `json:"receivers"`
	// Cohorts holds aggregated honest populations riding the fluid cohort
	// model, one member count per cohort. They join at time zero and churn
	// alongside the exact receivers.
	Cohorts []int `json:"cohorts,omitempty"`
}

// ReceiverSpec is one receiver (honest or attacker).
type ReceiverSpec struct {
	Attacker bool `json:"attacker,omitempty"`
	// Strategy selects the attacker strategy ("classic", "colluding",
	// "adaptive", "forging"; empty = classic). Only meaningful with
	// Attacker set; the hunt generator and mutator populate it.
	Strategy string `json:"strategy,omitempty"`
	// DelayMs is the access-link propagation delay (0 = topology default).
	DelayMs float64 `json:"delay_ms,omitempty"`
	// StartSec staggers the receiver's join (0 = joins at time zero).
	StartSec float64 `json:"start_sec,omitempty"`
}

// Event kinds, mirroring the facade's timeline events.
const (
	EvJoin  = "join"
	EvLeave = "leave"
	EvChurn = "churn"
	EvOnset = "onset"
	EvStop  = "stop"
	EvCap   = "capacity"
	EvDelay = "delay"
	EvDown  = "down"
	EvUp    = "up"
	EvFlap  = "flap"
)

// EventSpec is one serialized timeline event. Which fields matter depends
// on Kind; session/receiver/link indices follow the facade conventions
// (sessions and receivers 1-based, links 0-based).
type EventSpec struct {
	Kind     string  `json:"kind"`
	AtSec    float64 `json:"at_sec,omitempty"`
	Session  int     `json:"session,omitempty"`
	Receiver int     `json:"receiver,omitempty"`
	Link     int     `json:"link,omitempty"`
	// Rate is the churn rate in toggles/second.
	Rate float64 `json:"rate,omitempty"`
	// Bps is the new capacity for capacity events.
	Bps int64 `json:"bps,omitempty"`
	// DelayMs is the new propagation delay for delay events.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// PeriodSec is the flap period (down a tenth of each period).
	PeriodSec float64 `json:"period_sec,omitempty"`
	// FromSec/ToSec bound windowed events (churn, flap).
	FromSec float64 `json:"from_sec,omitempty"`
	ToSec   float64 `json:"to_sec,omitempty"`
}

// OracleSpec serializes a suppression oracle.
type OracleSpec struct {
	Session   int     `json:"session"`
	FromSec   float64 `json:"from_sec"`
	Factor    float64 `json:"factor"`
	FloorKbps float64 `json:"floor_kbps"`
}

// Duration returns the scenario length in virtual time.
func (sp Spec) Duration() deltasigma.Time { return sim.Seconds(sp.DurationSec) }

// secs converts spec seconds to virtual time.
func secs(s float64) deltasigma.Time { return sim.Seconds(s) }

// Options renders the option-expressible part of the spec: protocol, seed,
// topology, schedule and timeline. Sessions and cross traffic are wired by
// Wire after New.
func (sp Spec) Options() ([]deltasigma.Option, error) {
	if err := sp.checkScalars(); err != nil {
		return nil, err
	}
	opts := []deltasigma.Option{deltasigma.WithProtocol(sp.Protocol), deltasigma.WithSeed(sp.Seed), deltasigma.WithTopology(sp.Topology)}
	if sp.Groups > 0 {
		opts = append(opts, deltasigma.WithSchedule(deltasigma.RateSchedule{
			Base: 100_000, Mult: 1.5, N: sp.Groups,
		}))
	}
	if sp.NoConsolidation {
		opts = append(opts, deltasigma.WithFeedbackConsolidation(false))
	}
	events, err := sp.timeline()
	if err != nil {
		return nil, err
	}
	if len(events) > 0 {
		opts = append(opts, deltasigma.WithTimeline(events...))
	}
	return opts, nil
}

// checkScalars states the range of the counts, receiver delays and start
// times a spec carries, which Options and Wire would otherwise read as
// "unset" when negative: Options refuses a spec that breaks one, and
// ReadRepro refuses a repro file. An event's values are the facade's to
// check: WithTimeline refuses them at New.
func (sp Spec) checkScalars() error {
	if sp.TCP < 0 || sp.Groups < 0 {
		return fmt.Errorf("fuzzing: tcp %d and groups %d must be non-negative", sp.TCP, sp.Groups)
	}
	for si, ss := range sp.Sessions {
		for ri, rs := range ss.Receivers {
			if rs.DelayMs < 0 || rs.StartSec < 0 {
				return fmt.Errorf("fuzzing: receiver S%dR%d has a negative delay_ms or start_sec", si+1, ri+1)
			}
		}
		for _, n := range ss.Cohorts {
			if n <= 0 {
				return fmt.Errorf("fuzzing: session %d has a cohort of %d members", si+1, n)
			}
		}
	}
	return nil
}

// timeline converts the serialized events into typed facade events.
func (sp Spec) timeline() ([]deltasigma.TimelineEvent, error) {
	var out []deltasigma.TimelineEvent
	for i, ev := range sp.Events {
		switch ev.Kind {
		case EvJoin:
			out = append(out, deltasigma.ReceiverJoin{At: secs(ev.AtSec), Session: ev.Session, Receiver: ev.Receiver})
		case EvLeave:
			out = append(out, deltasigma.ReceiverLeave{At: secs(ev.AtSec), Session: ev.Session, Receiver: ev.Receiver})
		case EvChurn:
			out = append(out, deltasigma.PoissonChurn{Session: ev.Session, Rate: ev.Rate, From: secs(ev.FromSec), To: secs(ev.ToSec)})
		case EvOnset:
			out = append(out, deltasigma.AttackerOnset{At: secs(ev.AtSec), Session: ev.Session, Receiver: ev.Receiver})
		case EvStop:
			out = append(out, deltasigma.AttackerStop{At: secs(ev.AtSec), Session: ev.Session, Receiver: ev.Receiver})
		case EvCap:
			out = append(out, deltasigma.LinkSetCapacity{At: secs(ev.AtSec), Link: ev.Link, Bps: ev.Bps})
		case EvDelay:
			out = append(out, deltasigma.LinkSetDelay{At: secs(ev.AtSec), Link: ev.Link, Delay: sim.Seconds(ev.DelayMs / 1000)})
		case EvDown:
			out = append(out, deltasigma.LinkDown{At: secs(ev.AtSec), Link: ev.Link})
		case EvUp:
			out = append(out, deltasigma.LinkUp{At: secs(ev.AtSec), Link: ev.Link})
		case EvFlap:
			out = append(out, deltasigma.LinkFlap{Link: ev.Link, Period: secs(ev.PeriodSec), From: secs(ev.FromSec), To: secs(ev.ToSec)})
		default:
			return nil, fmt.Errorf("fuzzing: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return out, nil
}

// Wire attaches the spec's sessions, receivers and cross traffic to an
// experiment freshly built from Options. A spec asking for an attacker the
// facade refuses — an unknown strategy name, a protocol with nothing to
// inflate; only a hand-edited repro file does — gets the facade's typed
// error back.
func (sp Spec) Wire(e *deltasigma.Experiment) error {
	for si, ss := range sp.Sessions {
		s := e.AddSession(0)
		for _, rs := range ss.Receivers {
			var r *deltasigma.Receiver
			delay := deltasigma.DefaultDelay
			if rs.DelayMs > 0 {
				delay = sim.Seconds(rs.DelayMs / 1000)
			}
			if rs.Attacker {
				var err error
				r, err = s.TryAddAttacker(deltasigma.WithStrategy(deltasigma.AttackerStrategy(rs.Strategy)),
					deltasigma.AtPort(e.Topo.AttachReceiver("", delay)))
				if err != nil {
					return fmt.Errorf("fuzzing: session %d: %w", si+1, err)
				}
			} else {
				r = s.AddReceiverDelay(delay)
			}
			if rs.StartSec > 0 {
				r.StartAt(secs(rs.StartSec))
			}
		}
		for _, n := range ss.Cohorts {
			s.AddCohort(n)
		}
	}
	for i := 0; i < sp.TCP; i++ {
		e.AddTCP(deltasigma.Time(i) * 100 * deltasigma.Millisecond)
	}
	if sp.CBRFraction > 0 {
		narrowest := sp.Topology.CapacitiesBps[0]
		for _, c := range sp.Topology.CapacitiesBps {
			if c < narrowest {
				narrowest = c
			}
		}
		e.AddCBR(int64(sp.CBRFraction*float64(narrowest)), 2*deltasigma.Second, 2*deltasigma.Second)
	}
	return nil
}

// normalize applies the validity rules every spec producer shares — the
// generators, the hunt's repair, the shrinker's removals — and ReadRepro
// checks a hand-edited file against. It drops events whose session,
// receiver or link does not resolve, onset and stop events that name no
// attacker, and churn on a session with no well-behaved members; the
// oracle when its session lacks either population; and NoConsolidation
// when nothing consolidates: no cohorts, and a protocol whose sender reads
// no receiver feedback; and the strategy of an honest receiver. Events are
// filtered in place. It reports whether anything changed.
func (sp *Spec) normalize() (changed bool) {
	events := sp.Events[:0]
	for _, ev := range sp.Events {
		if sp.resolves(ev) {
			events = append(events, ev)
		}
	}
	changed = len(events) != len(sp.Events)
	sp.Events = events
	if sp.Oracle != nil {
		if honest, attackers := sp.members(sp.Oracle.Session); honest == 0 || attackers == 0 {
			sp.Oracle, changed = nil, true
		}
	}
	if p, _ := deltasigma.LookupProtocol(sp.Protocol); sp.NoConsolidation && !sp.hasCohorts() && !p.Feedback {
		sp.NoConsolidation, changed = false, true
	}
	for si := range sp.Sessions {
		for ri := range sp.Sessions[si].Receivers {
			if rs := &sp.Sessions[si].Receivers[ri]; !rs.Attacker && rs.Strategy != "" {
				rs.Strategy, changed = "", true
			}
		}
	}
	return changed
}

// resolves reports whether ev names things the spec has, by the rules the
// facade's timeline events resolve with. Receiver 0 on an onset or stop
// means every attacker of the session.
func (sp *Spec) resolves(ev EventSpec) bool {
	rs, ok := receiverOf(*sp, ev.Session, ev.Receiver)
	honest, attackers := sp.members(ev.Session)
	switch ev.Kind {
	case EvJoin, EvLeave:
		return ok
	case EvOnset, EvStop:
		return ok && rs.Attacker || ev.Receiver == 0 && attackers > 0
	case EvChurn:
		return honest > 0
	case EvCap, EvDelay, EvDown, EvUp, EvFlap:
		return ev.Link >= 0 && ev.Link < len(sp.Topology.CapacitiesBps)
	}
	return false
}

// members counts the well-behaved members of session s (1-based) — exact
// honest receivers plus cohort members, as the facade's churn and oracle
// count them — and its attackers. A session that does not resolve has
// neither.
func (sp *Spec) members(s int) (honest, attackers int) {
	if s < 1 || s > len(sp.Sessions) {
		return 0, 0
	}
	honest, attackers = populations(sp.Sessions[s-1])
	for _, n := range sp.Sessions[s-1].Cohorts {
		honest += n
	}
	return honest, attackers
}

// receiverOf resolves a 1-based (session, receiver) spec reference.
func receiverOf(sp Spec, session, receiver int) (ReceiverSpec, bool) {
	if session < 1 || session > len(sp.Sessions) {
		return ReceiverSpec{}, false
	}
	rs := sp.Sessions[session-1].Receivers
	if receiver < 1 || receiver > len(rs) {
		return ReceiverSpec{}, false
	}
	return rs[receiver-1], true
}
