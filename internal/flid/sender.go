// Package flid is the protocol kit built around FLID-DL, the congestion
// control protocol of Byers et al. (the paper's protected protocol), and
// FLID-DS, its DELTA+SIGMA hardened derivative (§5.1):
//
//   - the tally-receiver kernel: FLID-DL's receiver drops its top group on
//     any loss in a slot and adds one when the slot's increase signal
//     authorizes it; membership is plain IGMP, which Inflator abuses;
//   - the keyed source every protected row runs, the shared slot loop plus
//     a DELTA keying (Figure 4, Figure 5 or Shamir shares) and SIGMA's
//     announcer; unprotected rows run the bare core.SlotSender;
//   - the key-receiver kernel, which reconstructs keys and subscribes per
//     the Figure 2 pipeline, and KeyAttacker, one for every keying.
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
	"deltasigma/internal/shamir"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// Sender is the keyed source every protected row runs: the shared slotted
// sender loop, a DELTA keying that mints each slot's keys and stamps each
// packet's key fields, and the SIGMA announcer that sends the keys to the
// edge routers ahead of the access slot they guard (Figure 2).
type Sender struct {
	*core.SlotSender
	keys   keyer
	ann    *sigma.Announcer
	tuples []packet.KeyTuple // the slot's announcement, refilled every slot
}

// Keying builds the DELTA instantiation (§3.1) a protected row's source
// runs — LayeredKeying, ReplicatedKeying or ShamirKeying — forking its key
// streams from the sender's rng. The keying alone decides the packets' key
// fields, how each group is paced and which groups carry the announcement.
type Keying func(sess *core.Session, rng *sim.RNG) keyer

type keyer interface {
	// begin mints the slot's keys; the slot state lives until the next begin.
	begin(slot uint32, auth []bool, counts []int) *delta.SlotKeys
	header(s *core.SlotSender, st core.Stamp) packet.Header
	// replicated reports that every group is a complete stream: paced at
	// its level's cumulative rate, and announced on, since a receiver sits
	// on one group's tree only.
	replicated() bool
}

// NewSender builds a keyed source on host; announceRepeat is SIGMA's FEC
// expansion factor z.
func NewSender(host *netsim.Host, sess *core.Session, keying Keying, policy core.UpgradePolicy, rng *sim.RNG, announceRepeat int) *Sender {
	s := &Sender{keys: keying(sess, rng)}
	rate, announced := sess.Rates.GroupRate, 1
	if s.keys.replicated() {
		rate, announced = sess.Rates.Cumulative, sess.Rates.N
	}
	s.SlotSender = core.NewSlotSender(host, sess, sess.Rates.N, policy, rng, core.SenderHooks{
		Rate: rate, Begin: s.beginSlot, Header: s.header,
	})
	s.ann = sigma.NewAnnouncer(host, sess.ID, sess.BaseAddr, announced, announceRepeat)
	s.ann.Spacing = sess.SlotDur / 4
	return s
}

// Announcer exposes the SIGMA announcer for overhead accounting.
func (s *Sender) Announcer() *sigma.Announcer { return s.ann }

func (s *Sender) beginSlot(slot uint32, auth []bool, counts []int) {
	s.tuples = s.keys.begin(slot, auth, counts).AppendTuples(s.tuples[:0], s.Sess.BaseAddr)
	s.ann.Announce(core.AccessSlot(slot), s.tuples)
}

func (s *Sender) header(st core.Stamp) packet.Header { return s.keys.header(s.SlotSender, st) }

// xorKeying carries each group's secret in its packets' component fields
// and each decrease key one group up (Figures 4 and 5).
type xorKeying struct {
	send *delta.LayeredSender
	slot *delta.LayeredSlot
}

// LayeredKeying keys cumulative layers with Figure 4's XOR components, as
// FLID-DS does.
func LayeredKeying(sess *core.Session, rng *sim.RNG) keyer {
	return &xorKeying{send: delta.NewLayeredSender(sess.Rates.N, keys.NewSource(keys.DefaultBits, rng.Fork().Uint64))}
}

// ReplicatedKeying keys replicated groups with Figure 5's XOR components.
func ReplicatedKeying(sess *core.Session, rng *sim.RNG) keyer {
	k := LayeredKeying(sess, rng).(*xorKeying)
	k.send.Replicated = true
	return k
}

func (k *xorKeying) begin(slot uint32, auth []bool, counts []int) *delta.SlotKeys {
	k.slot = k.send.BeginSlot(slot, auth, counts)
	return &k.slot.Keys
}

func (k *xorKeying) header(s *core.SlotSender, st core.Stamp) packet.Header {
	component, decrease := k.slot.Fields(int(st.Group))
	if !k.send.Replicated {
		h := s.FLIDHeader(st)
		h.HasDelta, h.Component, h.Decrease = true, component, decrease
		return h
	}
	h := s.Pool().ReplHeader()
	h.Session, h.Group, h.Slot = st.Session, st.Group, st.Slot
	h.Seq, h.Count, h.IncreaseTo = st.Seq, st.Count, st.IncreaseTo
	h.HasDelta, h.Component, h.Decrease = true, component, decrease
	return h
}

func (k *xorKeying) replicated() bool { return k.send.Replicated }

// shamirKeying shares each level's key, and an authorized upgrade's
// increase key, over the level's packets (Eqs. 7–9).
type shamirKeying struct {
	send *delta.ThresholdSender
	slot *delta.ThresholdSlot
}

// ShamirKeying keys cumulative layers with Shamir shares at the per-level
// loss tolerances thresh, as the loss-threshold protocol does.
func ShamirKeying(thresh []float64) Keying {
	return func(sess *core.Session, rng *sim.RNG) keyer {
		src := keys.NewSource(keys.DefaultBits, rng.Fork().Uint64)
		send := delta.NewThresholdSender(sess.Rates.N, thresh, src, shamir.NewSplitter(rng.Fork().Uint64))
		send.Reserve(sess.MaxPackets())
		return &shamirKeying{send: send}
	}
}

func (k *shamirKeying) begin(slot uint32, auth []bool, counts []int) *delta.SlotKeys {
	ts, err := k.send.BeginSlot(slot, auth, counts)
	if err != nil {
		panic(err) // counts are >= 1 by construction
	}
	k.slot = ts
	return &ts.Keys
}

func (k *shamirKeying) header(s *core.SlotSender, st core.Stamp) packet.Header {
	share, up := k.slot.Shares(int(st.Group))
	h := s.FLIDHeader(st)
	h.ShareX, h.ShareY = share.X, share.Y
	h.UpShareX, h.UpShareY = up.X, up.Y
	return h
}

func (k *shamirKeying) replicated() bool { return false }
