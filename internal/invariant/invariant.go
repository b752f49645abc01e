// Package invariant is the runtime audit layer of the simulator: a set of
// conservation laws and consistency checks that any experiment must satisfy
// at any instant (and a few more that must hold once traffic has stopped
// and the network drained), together with an Auditor that collects typed,
// serializable diagnostics when one is violated.
//
// The checks are deliberately expressed over the engine-layer types
// (packet.Pool, netsim.Link, mcast.Fabric) rather than over experiments, so
// they can be asserted from unit tests of any layer; the deltasigma facade
// wires them onto a whole Experiment via WithAudit, and internal/fuzzing
// runs every machine-generated scenario under them.
//
// The laws, and why they hold (see DESIGN.md "Validation"):
//
//   - Pool balance: every pooled packet reference that is issued is
//     eventually released exactly once, so after traffic stops and the
//     network drains, Pool.Outstanding() returns to its pre-experiment
//     value. A violation is a reference leak (or double release, which
//     panics earlier).
//   - Link conservation: every packet handed to Link.Send is in exactly one
//     place — delivered, drop-tail dropped, outage-discarded, queued, in
//     propagation, or serializing: Arrived == Delivered + Dropped +
//     DroppedDown + Len + InFlight + Serializing. A doomed stand-in (a
//     packet its first hop would drop unseen, netsim.Host.SendIfDoomed)
//     counts as Delivered at tx-done and never enters propagation, so the
//     equation holds for it too. The counters on both sides are updated
//     by disjoint code paths, so the equation catches a lost or
//     double-counted packet whichever path miscounts.
//   - Utilization bound: a link cannot deliver more bits than its capacity
//     integral (rate over up-time) admits, with one packet of slack per
//     rate change for the packet mid-serialization when the rate drops.
//   - Queue occupancy: a bounded queue never holds more bytes than its
//     capacity — push enforces it, so a violation means accounting drift.
//   - Time monotonicity: the virtual clock never rewinds between samples.
//   - Graft consistency: a gatekeeper that would forward a group onto a
//     local interface implies a live graft for that group at its edge
//     router — entitlement changes call Graft/Prune synchronously.
package invariant

import (
	"fmt"
	"slices"
	"strings"

	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Violation is one detected invariant breach: a typed, serializable
// diagnostic carrying the rule that failed, the subject it failed on, the
// virtual time of detection and the observed-versus-required quantities.
type Violation struct {
	// Rule names the invariant, e.g. "pool-balance" or "link-conservation".
	Rule string `json:"rule"`
	// Subject locates the breach (a link label, a receiver label); empty
	// for experiment-global rules.
	Subject string `json:"subject,omitempty"`
	// AtSec is the virtual time of detection in seconds.
	AtSec float64 `json:"at_sec"`
	// Got and Want are the observed and required quantities of the rule's
	// comparison (for equality rules Want is the exact value, for bound
	// rules the bound).
	Got  float64 `json:"got"`
	Want float64 `json:"want"`
	// Detail is the human-readable diagnostic.
	Detail string `json:"detail"`
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	s := fmt.Sprintf("[%s]", v.Rule)
	if v.Subject != "" {
		s += " " + v.Subject
	}
	return fmt.Sprintf("%s at %.3fs: %s (got %g, want %g)", s, v.AtSec, v.Detail, v.Got, v.Want)
}

// Rule names, exported so callers can filter violations by kind.
const (
	RulePoolBalance      = "pool-balance"
	RuleLinkConservation = "link-conservation"
	RuleUtilizationBound = "utilization-bound"
	RuleQueueOccupancy   = "queue-occupancy"
	RuleLinkDrained      = "link-drained"
	RuleTimeMonotonic    = "time-monotonic"
	RuleGraftConsistency = "graft-consistency"
	RuleLevelBounds      = "level-bounds"
	// RuleCohortConservation is member conservation for aggregated receiver
	// populations: online plus offline members always equals the configured
	// count — churn toggles move members between the two pools, never
	// create or destroy them.
	RuleCohortConservation = "cohort-conservation"
	RuleSuppressionOracle  = "suppression-oracle"
	// RuleOracleWindow flags a mis-specified oracle (its measurement window
	// never opened) — distinct from a genuine suppression failure so
	// shrinking and triage never conflate the two.
	RuleOracleWindow = "oracle-window"
)

// recordLimit caps how many violations an Auditor records; a systematically
// broken invariant would otherwise flood a periodic audit with thousands of
// identical reports. Detection keeps counting past the cap — only storage
// stops.
const recordLimit = 64

// Auditor accumulates violations. The zero value is ready to use.
type Auditor struct {
	// Total counts every violation observed, recorded or not.
	Total int

	vs    []Violation
	hosts []packet.Addr // CheckGraftConsistency's scratch, reused per sample
}

// Report records a violation (subject to recordLimit).
func (a *Auditor) Report(v Violation) {
	a.Total++
	if len(a.vs) < recordLimit {
		a.vs = append(a.vs, v)
	}
}

// Reportf builds and records a violation.
func (a *Auditor) Reportf(rule, subject string, at sim.Time, got, want float64, format string, args ...any) {
	a.Report(Violation{
		Rule:    rule,
		Subject: subject,
		AtSec:   at.Sec(),
		Got:     got,
		Want:    want,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded violations in detection order.
func (a *Auditor) Violations() []Violation { return a.vs }

// Ok reports whether no violation has been observed.
func (a *Auditor) Ok() bool { return a.Total == 0 }

// Err returns nil when the audit is clean, or an error describing every
// recorded violation.
func (a *Auditor) Err() error {
	if a.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s)", a.Total)
	for _, v := range a.vs {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if a.Total > len(a.vs) {
		fmt.Fprintf(&b, "\n  ... %d more not recorded", a.Total-len(a.vs))
	}
	return fmt.Errorf("%s", b.String())
}

// ---------------------------------------------------------------------------
// Checks.

// CheckPoolBalance asserts the pool's outstanding-reference gauge is back at
// baseline (the value snapshotted before the experiment issued its first
// packet — campaign workers reuse one pool across runs, so absolute zero
// would blame a leak on whichever later experiment happened to share the
// pool). Call only after traffic has stopped and the network drained.
func (a *Auditor) CheckPoolBalance(at sim.Time, pool *packet.Pool, baseline uint64) {
	if out := pool.Outstanding(); out != baseline {
		// Report the per-experiment delta only: the pool's cumulative
		// counters reflect every earlier run that shared it on this worker,
		// so embedding them would make a failing diagnostic depend on
		// worker-pool history and break outcome byte-identity across
		// worker counts.
		leaked := int64(out) - int64(baseline)
		a.Reportf(RulePoolBalance, "", at, float64(leaked), 0,
			"%d pooled packet references unreleased after drain", leaked)
	}
}

// CheckLink asserts the instantaneous per-link laws: packet conservation,
// the capacity-integral bound on serialized bytes, and queue occupancy.
// Safe to call at any virtual time, running or drained. A sampled audit
// calls this on every link at every sample: the link's label is built
// only when a law is broken.
func (a *Auditor) CheckLink(at sim.Time, l *netsim.Link) {
	// Conservation: every arrival is in exactly one place.
	serializing := uint64(0)
	if l.Serializing() {
		serializing = 1
	}
	accounted := l.Delivered + l.Queue.Dropped + l.DroppedDown +
		uint64(l.Queue.Len()) + uint64(l.InFlight()) + serializing
	if l.Arrived != accounted {
		a.Reportf(RuleLinkConservation, l.String(), at, float64(accounted), float64(l.Arrived),
			"arrived %d != delivered %d + dropped %d + dropped-down %d + queued %d + in-flight %d + serializing %d",
			l.Arrived, l.Delivered, l.Queue.Dropped, l.DroppedDown,
			l.Queue.Len(), l.InFlight(), serializing)
	}

	// Utilization: serialized bits never exceed the capacity integral, with
	// one max-sized packet of slack per rate change (a packet already
	// serializing completes on the old timing when the rate drops).
	capBits := l.CapacityBits()
	slack := float64(8*l.MaxPacketBytes) * float64(1+l.RateChanges)
	if sent := float64(l.SentBytes) * 8; sent > capBits+slack {
		a.Reportf(RuleUtilizationBound, l.String(), at, sent, capBits+slack,
			"serialized %.0f bits exceeds capacity integral %.0f + slack %.0f", sent, capBits, slack)
	}

	// Occupancy: a bounded queue stays within its byte capacity.
	if limit := l.Queue.CapBytes; limit > 0 {
		if b := l.Queue.Bytes(); b > limit {
			a.Reportf(RuleQueueOccupancy, l.String(), at, float64(b), float64(limit),
				"queue holds %d bytes over its %d-byte capacity", b, limit)
		}
		if l.Queue.MaxFilled > limit {
			a.Reportf(RuleQueueOccupancy, l.String(), at, float64(l.Queue.MaxFilled), float64(limit),
				"queue high-water mark %d exceeded its %d-byte capacity", l.Queue.MaxFilled, limit)
		}
	}
}

// CheckLinkDrained asserts the link holds no packets — queue empty, nothing
// serializing, nothing in propagation. Call only after traffic has stopped
// and the drain grace elapsed.
func (a *Auditor) CheckLinkDrained(at sim.Time, l *netsim.Link) {
	if held := l.Queue.Len() + l.InFlight(); held > 0 || l.Serializing() {
		s := 0
		if l.Serializing() {
			s = 1
		}
		a.Reportf(RuleLinkDrained, l.String(), at, float64(held+s), 0,
			"link still holds packets after drain: %d queued, %d in flight, %d serializing",
			l.Queue.Len(), l.InFlight(), s)
	}
}

// CheckMonotonicTime asserts the virtual clock did not rewind since the
// previous sample and advances *last to now.
func (a *Auditor) CheckMonotonicTime(last *sim.Time, now sim.Time) {
	if now < *last {
		a.Reportf(RuleTimeMonotonic, "", now, now.Sec(), last.Sec(),
			"virtual clock rewound from %v to %v", *last, now)
		return
	}
	*last = now
}

// CheckGraftConsistency asserts, for every edge router with a gatekeeper,
// that an entitled (group, local interface) pair implies a live graft for
// that group at the router: gatekeepers call Graft synchronously when the
// first interface becomes entitled and Prune only after the last one stops
// being, so a forwarding decision with no graft behind it means the two
// views have diverged.
func (a *Auditor) CheckGraftConsistency(at sim.Time, fabric *mcast.Fabric, edges []*mcast.Router, groups []packet.Addr) {
	for _, edge := range edges {
		gate := edge.Gatekeeper()
		if gate == nil { // an audit before Start: no gatekeeper installed yet
			continue
		}
		// Locals is a map; sort the addresses so violation order (and with
		// it any fingerprint of the audit) is deterministic.
		a.hosts = a.hosts[:0]
		// order-insensitive: the hosts are sorted below
		for host := range edge.Locals() {
			a.hosts = append(a.hosts, host)
		}
		slices.Sort(a.hosts)
		for _, host := range a.hosts {
			for _, g := range groups {
				if gate.Entitled(g, host) && !fabric.Joined(g, edge.ID()) {
					a.Reportf(RuleGraftConsistency, edge.Name(), at, 1, 0,
						"host %v entitled to group %v but the edge holds no graft", host, g)
				}
			}
		}
	}
}
