// Package flid implements the FLID-DL congestion control protocol of Byers
// et al. (the paper's protected protocol) and FLID-DS, its DELTA+SIGMA
// hardened derivative (§5.1):
//
//   - a slotted sender transmitting cumulative layers at multiplicative
//     rates with per-slot increase signals;
//   - a well-behaved receiver that drops its top group on any loss in a
//     slot and adds a group when the slot's increase signal authorizes it;
//   - an inflated-subscription attacker for both variants.
//
// In DL mode group membership is plain IGMP — which is exactly what the
// attacker abuses. In DS mode the sender runs the Figure 4 DELTA key
// generation and announces tuples to edge routers via SIGMA; receivers
// reconstruct keys and subscribe per the Figure 2 pipeline.
//
// Dynamic layering is modelled as zero-latency leave (see DESIGN.md): DL's
// layer-rotation machinery exists to let receivers shed rate without IGMP
// leave latency, so granting immediate leave exercises identical congestion
// control dynamics.
package flid

import (
	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// Mode selects the protocol variant.
type Mode int

// Protocol variants.
const (
	// DL is plain FLID-DL over IGMP (vulnerable baseline).
	DL Mode = iota
	// DS is FLID-DS: FLID-DL integrated with DELTA and SIGMA.
	DS
)

// String names the mode.
func (m Mode) String() string {
	if m == DS {
		return "FLID-DS"
	}
	return "FLID-DL"
}

// Sender is the session source: the shared slotted sender loop paced at
// the schedule's per-group rates, plus — in DS mode — the Figure 4 DELTA
// key generation and SIGMA announcement hooked into it.
type Sender struct {
	*core.SlotSender
	dsend *delta.LayeredSender
	ds    *delta.LayeredSlot // keys of the slot being emitted
	ann   *sigma.Announcer
}

// NewSender builds a session source on host. In DS mode, keySrc mints the
// DELTA nonces and announceRepeat is SIGMA's FEC expansion factor z.
func NewSender(host *netsim.Host, sess *core.Session, mode Mode, policy core.UpgradePolicy, rng *sim.RNG, keySrc *keys.Source, announceRepeat int) *Sender {
	s := &Sender{}
	hooks := core.SenderHooks{Rate: sess.Rates.GroupRate}
	if mode == DS {
		if keySrc == nil {
			keySrc = keys.NewSource(keys.DefaultBits, rng.Fork().Uint64)
		}
		s.dsend = delta.NewLayeredSender(sess.Rates.N, keySrc)
		s.ann = sigma.NewAnnouncer(host, sess.ID, sess.BaseAddr, sess.Rates.N, announceRepeat)
		s.ann.Spacing = sess.SlotDur / 4
		hooks.Begin, hooks.Header = s.beginSlot, s.header
	}
	s.SlotSender = core.NewSlotSender(host, sess, sess.Rates.N, policy, rng, hooks)
	return s
}

// Announcer exposes the SIGMA announcer (DS mode) for overhead accounting.
func (s *Sender) Announcer() *sigma.Announcer { return s.ann }

// beginSlot generates the slot's keys and announces them: they guard the
// access slot two ahead (Figure 2).
func (s *Sender) beginSlot(slot uint32, auth []bool, counts []int) {
	s.ds = s.dsend.BeginSlot(slot, auth, counts)
	s.ann.Announce(core.AccessSlot(slot), s.ds.Keys.Tuples(s.Sess.BaseAddr))
}

// header stamps the packet's DELTA component and decrease fields.
func (s *Sender) header(st core.Stamp) packet.Header {
	h := s.FLIDHeader(st)
	h.HasDelta = true
	h.Component, h.Decrease = s.ds.Fields(int(st.Group))
	return h
}
