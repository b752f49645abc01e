// Package dsc implements dynamic source channels after Lucas et al.
// (PAPERS.md), as a competitor to the paper's DELTA/SIGMA-protected
// protocols: the sender owns the layer rates and adapts them to aggregated
// receiver feedback instead of leaving all adaptation to receivers.
//
//   - receivers follow the FLID subscription rules (drop the top group on
//     a lossy slot, add a group on the slot's increase signal) and unicast
//     a per-slot status report toward the source (packet.FeedbackHeader);
//   - routers running hierarchical consolidation merge the reports on the
//     way up, so the source sees one digest per slot per subtree;
//   - the sender scales every layer down multiplicatively while any report
//     says congested, and recovers slowly after consecutive clean slots.
//
// Membership stays plain IGMP, so the inflated-subscription attacker
// (flid.NewInflator over the receiver) joins every group exactly as against
// FLID-DL — and by silencing its own feedback while honest receivers keep
// reporting loss, it drives the source's rates down for everyone while
// keeping the whole (reduced) session for itself.
//
// On the protocol kit that is one rule (FLID's plus a report) and one rate
// policy (the multiplier below) — the scheme describes itself as a
// FLID-style receiver plus one extra signal, and that is all this package
// holds.
package dsc

import (
	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Source-rate adaptation constants: one congested slot scales every layer
// by cutFactor; recoverAfter consecutive clean slots scale it back by
// raiseFactor, never above the schedule (multiplier 1) and never below
// minMult.
const (
	cutFactor    = 0.875
	raiseFactor  = 1.0625
	recoverAfter = 2
	minMult      = 0.25
)

// Sender is the session source: the shared slotted sender loop whose
// per-group rates are the schedule's scaled by a feedback-driven
// multiplier.
type Sender struct {
	*core.SlotSender
	mult  float64
	clean int

	// RateCuts and RateRaises count multiplier moves.
	RateCuts, RateRaises uint64
}

// NewSender builds a dsc source on host.
func NewSender(host *netsim.Host, sess *core.Session, policy core.PeriodicUpgrades, rng *sim.RNG) *Sender {
	s := &Sender{mult: 1}
	s.SlotSender = core.NewSlotSender(host, sess, sess.Rates.N, policy, rng, core.SenderHooks{
		Rate:  func(g int) int64 { return int64(s.mult * float64(sess.Rates.GroupRate(g))) },
		Adapt: s.adapt,
	})
	return s
}

// Mult returns the current rate multiplier applied to every layer.
func (s *Sender) Mult() float64 { return s.mult }

// adapt moves the multiplier on the feedback gathered during the last slot.
func (s *Sender) adapt(congested bool) {
	if congested {
		s.clean = 0
		if s.mult > minMult {
			s.mult *= cutFactor
			if s.mult < minMult {
				s.mult = minMult
			}
			s.RateCuts++
		}
	} else if s.clean++; s.clean >= recoverAfter && s.mult < 1 {
		s.mult *= raiseFactor
		if s.mult > 1 {
			s.mult = 1
		}
		s.RateRaises++
	}
}

// rule is the dsc receiver's: FLID's subscription rules, then a unicast
// status report toward the session source (routers running consolidation
// merge it with sibling reports on the way up). The report carries the
// slot's verdict and the level after the move.
func rule(r *flid.Receiver, v flid.SlotView) {
	flid.FLIDRule(r, v)
	r.Report(v.Slot, v.Loss)
}

// NewReceiver builds a well-behaved dsc receiver on host, managing
// membership through the edge router at routerAddr.
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr) *flid.Receiver {
	return flid.NewReceiver(host, sess, routerAddr, rule)
}
