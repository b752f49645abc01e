package deltasigma

import (
	"fmt"

	"deltasigma/internal/cohort"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
)

// feedbackHold is how long a consolidating router buffers a feedback bucket
// before flushing one merged report upstream: long enough to absorb every
// child report of a slot (they arrive within propagation skew of each
// other), short against the slot duration so consolidated feedback stays
// fresh.
const feedbackHold = 5 * Millisecond

// Cohort wraps an aggregated population of well-behaved receivers: one
// fluid model of n members behind a private edge (see internal/cohort)
// instead of n per-packet receiver objects. It exposes Receiver's runtime
// lifecycle — Start/Stop — plus the aggregate views (Online, Levels,
// MeanLevel) individuals do not have. Every cohort starts at time zero.
type Cohort struct {
	agent *cohort.Agent

	session int
	index   int
}

// AddCohort attaches an aggregated population of n well-behaved receivers
// at the topology's default egress with the default access delay. The
// population advances by the same FLID slot rules as n individual
// receivers and shares the session's bottlenecks and graft machinery, but
// costs O(groups) per slot instead of O(n) per packet — the way to put a
// million receivers in a session. Attackers cannot be aggregated; keep
// them (and any receiver on a path under test) as exact objects.
func (s *ExperimentSession) AddCohort(n int) *Cohort {
	return s.AddCohortDelay(n, DefaultDelay)
}

// AddCohortDelay attaches a cohort whose access link has the given
// propagation delay (negative — DefaultDelay — uses the topology default).
func (s *ExperimentSession) AddCohortDelay(n int, delay Time) *Cohort {
	s.exp.mustNotHaveStarted("AddCohort")
	if n <= 0 {
		panic(fmt.Sprintf("deltasigma: AddCohort(%d) needs a positive population", n))
	}
	if !s.exp.Protocol.Cohorts {
		// E.g. replicated sessions carry ProtoRepl data the layered fluid
		// model never observes; an aggregated population would sit at
		// level 1 forever and report pure loss.
		panic(fmt.Sprintf("deltasigma: AddCohort is not supported on protocol %q", s.exp.Protocol.Name))
	}
	port := s.exp.Topo.AttachCohort("", delay)
	agent := cohort.New(port.Host, port.Edge, s.Sess, uint64(n))
	agent.SetFeedbackDst(s.src.Addr())
	c := &Cohort{
		agent:   agent,
		session: s.index,
		index:   len(s.Cohorts) + 1,
	}
	s.Cohorts = append(s.Cohorts, c)
	return c
}

// Start brings every offline member online at the minimal level. Safe
// mid-run.
func (c *Cohort) Start() { c.agent.Start() }

// Stop takes every member offline. Safe mid-run; packets already queued or
// in flight drain normally.
func (c *Cohort) Stop() { c.agent.Stop() }

// Joined reports whether any member is currently online.
func (c *Cohort) Joined() bool { return c.agent.Joined() }

// Level reports the highest occupied subscription level (0 when every
// member is offline).
func (c *Cohort) Level() int { return c.agent.Level() }

// Levels returns the member count per subscription level; index 0 holds
// the offline members.
func (c *Cohort) Levels() []uint64 { return c.agent.Levels() }

// MeanLevel returns the average subscription level across all members,
// offline members counting as level 0.
func (c *Cohort) MeanLevel() float64 { return c.agent.MeanLevel() }

// Members returns the configured population size.
func (c *Cohort) Members() uint64 { return c.agent.Members() }

// Online returns how many members are currently joined.
func (c *Cohort) Online() uint64 { return c.agent.Online() }

// Toggle flips one member between joined and left; idx must be uniform in
// [0, Members()). PoissonChurn events resolve to this call.
func (c *Cohort) Toggle(idx uint64) { c.agent.Toggle(idx) }

// Meter returns the aggregate throughput meter: delivered session bytes
// summed across members.
func (c *Cohort) Meter() *Meter { return c.agent.Meter }

// Agent returns the underlying fluid model for aggregate statistics
// (bucket counts, per-member subscription moves, reports sent).
func (c *Cohort) Agent() *cohort.Agent { return c.agent }

// Label names the cohort in results: S<session>C<index>.
func (c *Cohort) Label() string { return fmt.Sprintf("S%dC%d", c.session, c.index) }

// ---------------------------------------------------------------------------
// Experiment-level cohort plumbing.

// Cohorts returns every cohort of every session, session by session in
// attachment order.
func (e *Experiment) Cohorts() []*Cohort {
	var out []*Cohort
	for _, s := range e.sessions {
		out = append(out, s.Cohorts...)
	}
	return out
}

// cohortEdges lists the private edge routers of every cohort, for the
// graft-consistency audit (they are deliberately absent from Topo.Edges).
func (e *Experiment) cohortEdges() []*mcast.Router {
	var out []*mcast.Router
	for _, s := range e.sessions {
		for _, c := range s.Cohorts {
			out = append(out, c.agent.Edge())
		}
	}
	return out
}

// enableConsolidation turns on hierarchical feedback consolidation at
// every router of the topology: each router merges the child feedback
// reports of a (session, slot) into one report and forwards it upstream
// after feedbackHold, so control traffic at the source scales with the
// tree's fan-out rather than the receiver population. Called from Start
// when cohorts exist and WithFeedbackConsolidation has not disabled it.
func (e *Experiment) enableConsolidation() {
	net := e.Topo.Network()
	for id := 0; id < e.Topo.Network().NodeCount(); id++ {
		if r, ok := net.Node(netsim.NodeID(id)).(*mcast.Router); ok {
			r.EnableConsolidation(feedbackHold)
		}
	}
}

// FeedbackStats totals the consolidation counters across every router:
// reports absorbed into pending buckets and merged reports forwarded
// upstream. Both zero when consolidation is off.
func (e *Experiment) FeedbackStats() (absorbed, forwarded uint64) {
	net := e.Topo.Network()
	for id := 0; id < net.NodeCount(); id++ {
		if r, ok := net.Node(netsim.NodeID(id)).(*mcast.Router); ok {
			absorbed += r.FeedbackAbsorbed
			forwarded += r.FeedbackForwarded
		}
	}
	return absorbed, forwarded
}
