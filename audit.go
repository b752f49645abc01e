package deltasigma

import (
	"fmt"
	"sort"

	"deltasigma/internal/invariant"
	"deltasigma/internal/mcast"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
)

// Violation is one detected invariant breach — a typed, serializable
// diagnostic (see internal/invariant for the rules and why they hold).
type Violation = invariant.Violation

// auditSettings accumulates the WithAudit sub-options.
type auditSettings struct {
	enabled  bool
	interval Time
	oracles  []SuppressionOracle
	err      error // the first misused sub-option, surfaced by New
}

// AuditOption configures the audit layer inside WithAudit.
type AuditOption func(*auditSettings)

// WithAudit attaches the invariant-audit layer to the experiment: the
// conservation laws (link packet conservation, the capacity-integral
// utilization bound, queue occupancy, clock monotonicity, gatekeeper/graft
// consistency, subscription-level bounds and — after StopTraffic and a
// drain — pool balance and empty links) are checked at the end of the run
// via Audit().Finish, and periodically during it when AuditEvery is given.
//
// With no WithAudit option nothing is allocated and the hot path is
// untouched: auditing disabled costs zero allocations per operation.
func WithAudit(opts ...AuditOption) Option {
	return func(s *settings) {
		s.audit.enabled = true
		for _, o := range opts {
			o(&s.audit)
		}
		if s.audit.err != nil {
			s.fail(s.audit.err)
		}
	}
}

// AuditEvery turns on during-run auditing: the full instantaneous rule set
// runs every d of virtual time on the experiment's scheduler.
func AuditEvery(d Time) AuditOption {
	return func(a *auditSettings) {
		if d <= 0 {
			a.err = fmt.Errorf("deltasigma: AuditEvery(%v) must be positive", d)
			return
		}
		a.interval = d
	}
}

// AuditSuppression arms the protocol oracle for the run (see
// SuppressionOracle). Repeated options accumulate.
func AuditSuppression(o SuppressionOracle) AuditOption {
	return func(a *auditSettings) { a.oracles = append(a.oracles, o) }
}

// SuppressionOracle is the paper's core claim as a checkable invariant:
// once the protection has had time to converge on an inflated-subscription
// attacker, the attacker's delivered throughput stays at or below the
// honest receivers' median share. The oracle is evaluated by Audit().Finish
// over [From, stop-of-traffic): From must sit past the attack onset plus a
// convergence allowance, and the window is only meaningful for protected
// protocol variants on sessions whose honest receivers stay subscribed —
// the caller (the fuzzer's generator, a test) decides eligibility.
type SuppressionOracle struct {
	// Session selects one session (1-based); 0 means every session that
	// contains at least one attacker and one honest receiver. A selected
	// session that does not exist or lacks either population is an
	// oracle-window violation.
	Session int
	// From is the start of the measurement window.
	From Time
	// Factor scales the honest median the attacker must stay below
	// (0 = 1.0; the attacker keeps its entitled share, so exactly the
	// honest median is the theoretical ceiling for a suppressed attacker).
	Factor float64
	// FloorKbps is an absolute grace floor added to the bound, so an
	// all-but-starved session does not flag noise-level attacker traffic.
	FloorKbps float64
}

// Audit is the runtime audit attached by WithAudit. Access it with
// Experiment.Audit; read violations any time with Violations, and run the
// end-of-run rules with Finish.
type Audit struct {
	exp     *Experiment
	cfg     auditSettings
	aud     invariant.Auditor
	lastNow Time
	timer   *sim.Timer
	// edges and groups are what the graft check walks; sessions, cohorts
	// and topology are fixed once the experiment starts, so install
	// resolves them once for the sampler.
	edges  []*mcast.Router
	groups []packet.Addr
}

func newAudit(e *Experiment, cfg auditSettings) *Audit {
	return &Audit{exp: e, cfg: cfg}
}

// Audit returns the audit layer, or nil when the experiment was built
// without WithAudit.
func (e *Experiment) Audit() *Audit { return e.audit }

// install arms the during-run sampler; called from Experiment.Start.
func (a *Audit) install(sched *sim.Scheduler) {
	a.lastNow = sched.Now()
	a.edges, a.groups = a.exp.graftScope()
	if a.cfg.interval <= 0 {
		return
	}
	a.timer = sched.NewTimer(func() {
		a.Check()
		a.timer.Reset(a.cfg.interval)
	})
	a.timer.Reset(a.cfg.interval)
}

// Violations returns every violation recorded so far, in detection order.
func (a *Audit) Violations() []Violation { return a.aud.Violations() }

// Err returns nil when the audit is clean so far, or an error describing
// the recorded violations.
func (a *Audit) Err() error { return a.aud.Err() }

// graftScope lists every gatekept edge router — the topology's plus each
// cohort's private one — and every session's group addresses, in session
// order: the two sides of the graft-consistency check.
func (e *Experiment) graftScope() ([]*mcast.Router, []packet.Addr) {
	edges := append(append([]*mcast.Router(nil), e.Topo.Edges()...), e.cohortEdges()...)
	var groups []packet.Addr
	for _, s := range e.sessions {
		groups = append(groups, s.Sess.Addrs()...)
	}
	return edges, groups
}

// Check runs the instantaneous rule set now: clock monotonicity, per-link
// conservation/utilization/occupancy on every link of the topology,
// gatekeeper-versus-graft consistency at every edge, and subscription-level
// bounds for every receiver. The periodic sampler calls this; callers can
// too, at any point of a run.
func (a *Audit) Check() {
	e := a.exp
	now := e.Now()
	a.aud.CheckMonotonicTime(&a.lastNow, now)
	for _, l := range e.Topo.Network().Links() {
		a.aud.CheckLink(now, l)
	}
	edges, groups := a.edges, a.groups
	if edges == nil {
		edges, groups = e.graftScope() // not started: still being assembled
	}
	a.aud.CheckGraftConsistency(now, e.Topo.Multicast(), edges, groups)
	for _, s := range e.sessions {
		n := s.Sess.Rates.N
		for _, r := range s.Receivers {
			if lvl := r.Level(); lvl < 0 || lvl > n {
				a.aud.Reportf(invariant.RuleLevelBounds, r.Label(), now,
					float64(lvl), float64(n),
					"subscription level %d outside 0..%d", lvl, n)
			}
		}
		for _, c := range s.Cohorts {
			if lvl := c.Level(); lvl < 0 || lvl > n {
				a.aud.Reportf(invariant.RuleLevelBounds, c.Label(), now,
					float64(lvl), float64(n),
					"subscription level %d outside 0..%d", lvl, n)
			}
			if got := c.Agent().Accounted(); got != c.Members() {
				a.aud.Reportf(invariant.RuleCohortConservation, c.Label(), now,
					float64(got), float64(c.Members()),
					"online+offline members %d != configured %d", got, c.Members())
			}
		}
	}
}

// Finish runs the end-of-run rules and returns every violation of the run.
// Call it after StopTraffic and a drain grace (see DrainAndAudit for the
// packaged sequence): on top of a final Check it asserts pool balance —
// every pooled packet reference issued since the experiment was built came
// back, to each shard's pool in a sharded run — and that no link still
// holds packets, then evaluates any armed suppression oracles over
// [oracle.From, stop-of-traffic).
func (a *Audit) Finish() []Violation {
	e := a.exp
	now := e.Now()
	a.Check()
	a.aud.CheckPoolBalance(now, e.Pool(), e.poolBase)
	// Sharded runs mint from per-shard pools; each must close independently
	// (the cut hand-off copies between pools, never moves ownership across).
	// Shard 0's pool is the main pool, checked against poolBase above.
	for i, p := range e.Topo.Network().ShardPools() {
		if i > 0 {
			a.aud.CheckPoolBalance(now, p, 0)
		}
	}
	for _, l := range e.Topo.Network().Links() {
		a.aud.CheckLinkDrained(now, l)
	}
	until := e.trafficEnd()
	for _, o := range a.cfg.oracles {
		a.checkOracle(o, until)
	}
	return a.aud.Violations()
}

// checkOracle evaluates one suppression oracle over [o.From, until).
func (a *Audit) checkOracle(o SuppressionOracle, until Time) {
	e := a.exp
	if o.From >= until {
		a.aud.Reportf(invariant.RuleOracleWindow, "", until,
			o.From.Sec(), until.Sec(),
			"oracle window [%v,%v) is empty — the run never reached the convergence point", o.From, until)
		return
	}
	if o.Session < 0 || o.Session > len(e.sessions) {
		a.aud.Reportf(invariant.RuleOracleWindow, fmt.Sprintf("S%d", o.Session), until, 0, 0,
			"oracle names session %d of %d", o.Session, len(e.sessions))
	}
	for _, s := range e.sessions {
		if o.Session != 0 && s.index != o.Session {
			continue
		}
		honest, attackers := sessionRates(s, o.From, until)
		if len(attackers) == 0 || len(honest) == 0 {
			if o.Session != 0 { // only a session that holds both populations can be named
				a.aud.Reportf(invariant.RuleOracleWindow, fmt.Sprintf("S%d", o.Session), until, float64(len(honest)), float64(len(attackers)),
					"oracle names session %d, with %d honest samples and %d attackers", o.Session, len(honest), len(attackers))
			}
			continue
		}
		sort.Float64s(honest)
		median := stats.PercentileSorted(honest, 0.5)
		factor := o.Factor
		if factor <= 0 {
			factor = 1
		}
		bound := median*factor + o.FloorKbps
		for _, r := range attackers {
			if got := r.Meter().AvgKbps(o.From, until); got > bound {
				a.aud.Reportf(invariant.RuleSuppressionOracle, r.Label(), until, got, bound,
					"attacker averaged %.1f Kbps over [%v,%v), above the suppression bound %.1f (honest median %.1f × %.2f + floor %.1f)",
					got, o.From, until, bound, median, factor, o.FloorKbps)
			}
		}
	}
}

// sessionRates gathers one session's throughput samples over [from, until):
// every honest receiver's average in Kbps — cohorts contribute their
// per-member average as one sample, since members are homogeneous and one
// sample is the population's share — plus the attacker receivers
// themselves, for callers that need per-attacker rates. Shared by the
// suppression oracle and the attacker-advantage fitness measurement, so
// the hunt optimizer maximizes exactly what the oracle bounds.
func sessionRates(s *ExperimentSession, from, until Time) (honest []float64, attackers []*Receiver) {
	for _, r := range s.Receivers {
		if r.Attacker() {
			attackers = append(attackers, r)
		} else {
			honest = append(honest, r.Meter().AvgKbps(from, until))
		}
	}
	for _, c := range s.Cohorts {
		honest = append(honest, c.Meter().AvgKbps(from, until)/float64(c.Members()))
	}
	return honest, attackers
}

// ---------------------------------------------------------------------------
// Drain plumbing shared by the audit layer, the fuzzer and the test suite.

// Pool returns the experiment's packet pool: the injected one under
// WithPacketPool, otherwise the network's own.
func (e *Experiment) Pool() *PacketPool { return e.Topo.Network().Pool() }

// StopTraffic stops every traffic source so the network can drain: churn
// generators go quiet, every session sender and receiver stops (attackers
// are deflated first, so inflation joins are withdrawn rather than left
// pinning the distribution tree), and TCP/CBR cross traffic halts. Packets
// already queued or in flight terminate normally. Timeline events scripted
// past the stop point still fire — stop after the scripted window when a
// drained network is the goal. Events already due at the stop instant fire
// first, so on a fresh experiment the t=0 starts that Start schedules
// cannot undo the stop. Idempotent; the first call records the stop time
// as the end of the measurement window for audit oracles.
func (e *Experiment) StopTraffic() {
	e.mustBeOpen("StopTraffic")
	e.Advance(e.Now())
	for _, c := range e.churns {
		c.Stop()
	}
	for _, s := range e.sessions {
		s.Sender.Stop()
		for _, r := range s.Receivers {
			if r.Attacker() {
				r.Deflate()
			}
			r.Stop()
		}
		for _, c := range s.Cohorts {
			c.Stop()
		}
	}
	for _, f := range e.tcps {
		f.Stop()
	}
	for _, c := range e.cbrs {
		c.Stop()
	}
	if !e.stopped {
		e.stopped, e.stoppedAt = true, e.Now()
	}
}

// trafficEnd is the end of the measurement window: the stop time once
// StopTraffic has run, otherwise now.
func (e *Experiment) trafficEnd() Time {
	if e.stopped {
		return e.stoppedAt
	}
	return e.Now()
}

// DrainAndAudit is the packaged end-of-run sequence: stop all traffic, let
// the network drain for grace of virtual time, then run Audit.Finish — the
// experiment's audit under WithAudit, otherwise one with no sampler and
// no oracle, so every run ends on the same rule set.
func (e *Experiment) DrainAndAudit(grace Time) []Violation {
	e.mustBeOpen("DrainAndAudit")
	e.StopTraffic()
	e.Advance(e.Now() + grace)
	a := e.audit
	if a == nil {
		a = newAudit(e, auditSettings{})
	}
	return a.Finish()
}
