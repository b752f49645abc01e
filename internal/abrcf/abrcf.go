// Package abrcf implements an ABR-style single dynamic channel with
// consolidated feedback after Fahmy et al. (PAPERS.md), as a baseline
// competitor to the paper's layered protocols:
//
//   - the session carries one group whose rate the source adapts AIMD-
//     style: multiplicative decrease while any receiver reports a lossy
//     slot, additive increase otherwise;
//   - every receiver subscribes to that single group and unicasts a
//     per-slot status report toward the source (packet.FeedbackHeader),
//     which routers running hierarchical consolidation merge on the way
//     up — the point-to-multipoint consolidation algorithm the PR 6
//     router path models.
//
// There is no inflated-subscription attack surface: a subscription to the
// single channel is already maximal, so joining "more" is structurally
// impossible. The facade reports this as a typed not-applicable error —
// the interesting negative result of the shoot-out: the scheme resists
// inflation by having nothing to inflate, at the cost of degrading every
// receiver to the slowest path's rate.
package abrcf

import (
	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// cutFactor is the multiplicative decrease applied to the channel rate on
// a congested slot; the additive increase on a clean slot is the schedule
// base rate over raiseDivisor.
const (
	cutFactor    = 0.9
	raiseDivisor = 4
)

// Sender is the session source: the shared slotted sender loop emitting
// one group, its rate an AIMD controller fed by (consolidated) receiver
// reports. The session's rate schedule bounds the controller: the base
// rate is the floor, the schedule's full cumulative rate the ceiling.
type Sender struct {
	*core.SlotSender
	rate int64

	// RateCuts and RateRaises count controller moves.
	RateCuts, RateRaises uint64
}

// NewSender builds an abr-cf source on host. A one-group session
// authorizes no upgrades, so the increase signal stays zero.
func NewSender(host *netsim.Host, sess *core.Session, rng *sim.RNG) *Sender {
	s := &Sender{rate: sess.Rates.Cumulative(1)}
	s.SlotSender = core.NewSlotSender(host, sess, 1, core.PeriodicUpgrades{N: 1}, rng, core.SenderHooks{
		Rate:  func(int) int64 { return s.rate },
		Adapt: s.adapt,
	})
	return s
}

// Rate returns the channel's current transmission rate in bits/s.
func (s *Sender) Rate() int64 { return s.rate }

// adapt is the AIMD step on the feedback gathered during the last slot.
func (s *Sender) adapt(congested bool) {
	floor := s.Sess.Rates.Cumulative(1)
	ceil := s.Sess.Rates.Cumulative(s.Sess.Rates.N)
	if congested {
		if s.rate > floor {
			s.rate = int64(float64(s.rate) * cutFactor)
			if s.rate < floor {
				s.rate = floor
			}
			s.RateCuts++
		}
	} else if s.rate < ceil {
		s.rate += s.Sess.Rates.Base / raiseDivisor
		if s.rate > ceil {
			s.rate = ceil
		}
		s.RateRaises++
	}
}

// rule is the abr-cf receiver's: there are no subscription levels to move
// between, so it only reports each slot's status toward the source — from
// the first slot it observed in full; the partial slot it joined in says
// nothing about the channel.
func rule(r *flid.Receiver, v flid.SlotView) {
	if v.Counted {
		r.Report(v.Slot, v.Loss)
	}
}

// NewReceiver builds an abr-cf receiver on host, managing membership
// through the edge router at routerAddr: the tally kernel held at the
// single channel (Level is 1 while subscribed).
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr) *flid.Receiver {
	return flid.NewReceiver(host, sess, routerAddr, rule)
}
