// Package threshold implements a loss-rate-threshold layered multicast
// congestion control protocol in the RLM/MLDA/WEBRC family (§3.1.2
// "Congested state"): a receiver of level g is congested only when its loss
// rate at the level exceeds the protocol's per-level threshold. Protection
// comes from the Shamir-sharing DELTA instantiation — the level key
// reconstructs exactly when the receiver's loss stayed within tolerance —
// plus SIGMA at the edge. Sender and receiver are the shared kit (the core
// sender loop, the flid key-receiver kernel) with the Shamir pieces plugged
// in; an attacker is flid.NewDSAttacker over the receiver.
package threshold

import (
	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/flid"
	"deltasigma/internal/keys"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// RLMThresholds returns the flat 25% per-level tolerance RLM defaults to.
func RLMThresholds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.25
	}
	return out
}

// GradedThresholds returns WEBRC-style tolerances that tighten with the
// level: from 25% at level 1 down to 5% at level n.
func GradedThresholds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if n == 1 {
			out[i] = 0.25
			continue
		}
		out[i] = 0.25 - 0.20*float64(i)/float64(n-1)
	}
	return out
}

// Sender transmits cumulative layers and spreads each level's key over its
// group's packets as Shamir shares.
type Sender struct {
	*core.SlotSender
	tsend *delta.ThresholdSender
	ts    *delta.ThresholdSlot // keys and polynomials of the slot being emitted
	ann   *sigma.Announcer
}

// NewSender builds a protected threshold sender with the given per-level
// loss tolerances.
func NewSender(host *netsim.Host, sess *core.Session, thresh []float64, policy core.UpgradePolicy, rng *sim.RNG, repeat int) *Sender {
	s := &Sender{}
	s.SlotSender = core.NewSlotSender(host, sess, sess.Rates.N, policy, rng, core.SenderHooks{
		Rate: sess.Rates.GroupRate, Begin: s.beginSlot, Header: s.header,
	})
	src := keys.NewSource(keys.DefaultBits, rng.Fork().Uint64)
	sp := shamir.NewSplitter(rng.Fork().Uint64)
	s.tsend = delta.NewThresholdSender(sess.Rates.N, thresh, src, sp)
	s.ann = sigma.NewAnnouncer(host, sess.ID, sess.BaseAddr, sess.Rates.N, repeat)
	s.ann.Spacing = sess.SlotDur / 4
	return s
}

func (s *Sender) beginSlot(slot uint32, auth []bool, counts []int) {
	ts, err := s.tsend.BeginSlot(slot, auth, counts)
	if err != nil {
		panic(err) // counts are >= 1 by construction
	}
	s.ts = ts
	s.ann.Announce(core.AccessSlot(slot), ts.Keys.Tuples(s.Sess.BaseAddr))
}

// header stamps the packet's share of its level's key and, when an upgrade
// is authorized, of the next level's increase key.
func (s *Sender) header(st core.Stamp) packet.Header {
	share, up := s.ts.Shares(int(st.Group))
	h := s.FLIDHeader(st)
	h.ShareX, h.ShareY = share.X, share.Y
	h.UpShareX, h.UpShareY = up.X, up.Y
	return h
}

// NewReceiver builds a well-behaved threshold receiver: the key-receiver
// kernel accumulating Shamir shares. thresh must match the sender's.
func NewReceiver(host *netsim.Host, sess *core.Session, thresh []float64, routerAddr packet.Addr) *flid.DSReceiver {
	return flid.NewDSReceiver(host, sess, routerAddr, func(n int) flid.Accumulator {
		return delta.NewThresholdReceiver(n, thresh)
	})
}
