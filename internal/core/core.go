// Package core assembles the paper's contribution into a reusable frame:
// session descriptors with the multiplicative layered rate schedule of
// §5.1, the slotted timeline of Figure 2 (keys distributed during data slot
// s guard access during slot s+2), the upgrade-authorization policy that
// multi-group protocols plug into, and the two slot machines every protocol
// shares — the sender loop (SlotSender) and the per-slot receiver driver
// (SlotLoop). The concrete protocols (internal/flid and the rule packages
// beside it) build on these types; DELTA (internal/delta) and SIGMA (internal/sigma) consume them.
package core

import (
	"fmt"
	"math"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// PipelineOffset is the Figure 2 timeline distance between a data slot and
// the access slot its in-band keys guard: keys distributed during slot s
// control access during slot s+2, leaving slot s+1 for receivers to
// reconstruct and submit them.
const PipelineOffset = 2

// AccessSlot maps a data slot to the slot its keys guard.
func AccessSlot(dataSlot uint32) uint32 { return dataSlot + PipelineOffset }

// RateSchedule is the cumulative multiplicative layering of §5.1: the
// minimal group transmits at Base bits/s and the cumulative rate of a
// subscription level grows by factor Mult per group.
type RateSchedule struct {
	// Base is the transmission rate of group 1 in bits/s.
	Base int64
	// Mult is the cumulative growth factor per group (1.5 in §5.1).
	Mult float64
	// N is the number of groups in the session.
	N int
}

// PaperSchedule returns the evaluation settings: 10 groups, 100 Kbps
// minimal group, factor 1.5.
func PaperSchedule() RateSchedule { return RateSchedule{Base: 100_000, Mult: 1.5, N: 10} }

// Check reports nonsensical parameters.
func (r RateSchedule) Check() error {
	if r.Base <= 0 || r.Mult < 1 || r.N < 1 || r.N > 255 {
		return fmt.Errorf("core: invalid rate schedule %+v", r)
	}
	return nil
}

// Cumulative returns the total rate of subscription level g (groups 1..g)
// in bits/s; level 0 is zero.
func (r RateSchedule) Cumulative(g int) int64 {
	if g <= 0 {
		return 0
	}
	if g > r.N {
		g = r.N
	}
	return int64(float64(r.Base) * math.Pow(r.Mult, float64(g-1)))
}

// GroupRate returns group g's own rate: the increment its layer adds.
func (r RateSchedule) GroupRate(g int) int64 {
	return r.Cumulative(g) - r.Cumulative(g-1)
}

// FairLevel returns the highest subscription level whose cumulative rate
// fits within share bits/s (0 when even the minimal group does not fit).
func (r RateSchedule) FairLevel(share int64) int {
	level := 0
	for g := 1; g <= r.N; g++ {
		if r.Cumulative(g) <= share {
			level = g
		} else {
			break
		}
	}
	return level
}

// ScheduleForTotal derives the multiplier m from a target cumulative rate
// R = Base·m^(N−1) (Eq. 10), as the §5.4 overhead experiments require.
func ScheduleForTotal(base, total int64, n int) RateSchedule {
	if n < 2 {
		return RateSchedule{Base: base, Mult: 1, N: n}
	}
	m := math.Pow(float64(total)/float64(base), 1/float64(n-1))
	return RateSchedule{Base: base, Mult: m, N: n}
}

// Session describes one multicast session: its identity, its block of
// contiguous group addresses, its rate schedule, and its slot clock.
type Session struct {
	ID         uint16
	BaseAddr   packet.Addr
	Src        packet.Addr // unicast address of the session source (0 until wired)
	Rates      RateSchedule
	SlotDur    sim.Time // slot s spans [s·SlotDur, (s+1)·SlotDur)
	PacketSize int      // wire bytes per data packet (576 in §5.1)

	addrs []packet.Addr // Addrs' slice, built on first use
}

// GroupAddr returns the address of group g (1-based).
func (s *Session) GroupAddr(g int) packet.Addr {
	return packet.Group(s.BaseAddr, g-1)
}

// GroupIndex resolves an address back to its group number, or 0.
func (s *Session) GroupIndex(a packet.Addr) int {
	if a < s.BaseAddr || a >= s.BaseAddr+packet.Addr(s.Rates.N) {
		return 0
	}
	return int(a-s.BaseAddr) + 1
}

// SlotAt returns the slot number active at virtual time t.
func (s *Session) SlotAt(t sim.Time) uint32 {
	return uint32(t / s.SlotDur)
}

// SlotStart returns when a slot begins.
func (s *Session) SlotStart(slot uint32) sim.Time {
	return sim.Time(slot) * s.SlotDur
}

// Addrs returns every group address of the session, minimal first. The
// slice is built on the first call and shared by every later one, so it is
// read-only: a caller that keeps or edits the addresses copies them. A
// session's address block and schedule are fixed before it first runs.
func (s *Session) Addrs() []packet.Addr {
	if s.addrs == nil {
		s.addrs = make([]packet.Addr, s.Rates.N)
		for g := 1; g <= s.Rates.N; g++ {
			s.addrs[g-1] = s.GroupAddr(g)
		}
	}
	return s.addrs
}

// KeyPairs appends to buf the SIGMA subscription pairs of a DELTA outcome
// — ks[i] opens group first+i — binding each key to its group address.
// Ascending group order is the outcome's own: the pairs reach the wire,
// collusion taps and the controller's graft sequence in it.
func (s *Session) KeyPairs(buf []packet.AddrKey, first int, ks []keys.Key) []packet.AddrKey {
	for i, k := range ks {
		buf = append(buf, packet.AddrKey{Addr: s.GroupAddr(first + i), Key: k})
	}
	return buf
}

// PeriodicUpgrades authorizes an upgrade to group g every period(g) =
// max(1, ceil(Factor·(g−1))) slots: upgrade opportunities thin out at
// higher levels, the same qualitative shape as FLID-DL's increase-signal
// schedule (higher layers take longer to reach, keeping high-rate receivers
// from thrashing). The observed per-group frequency f_g feeds the §5.4
// overhead model.
type PeriodicUpgrades struct {
	// Factor stretches the period per level; 2.0 by default.
	Factor float64
	// N is the number of groups.
	N int
}

// Period returns the authorization period of group g in slots.
func (p PeriodicUpgrades) Period(g int) uint32 {
	if g < 2 {
		return 0
	}
	f := p.Factor
	if f <= 0 {
		f = 2.0
	}
	per := uint32(math.Ceil(f * float64(g-1)))
	if per < 1 {
		per = 1
	}
	return per
}

// IncreaseTo returns the highest group receivers are authorized to upgrade
// to in slot (the FLID increase signal): the highest group whose period
// divides the slot number, or zero for no upgrade this slot. It depends on
// the slot number alone, so sender and analysis agree.
func (p PeriodicUpgrades) IncreaseTo(slot uint32) int {
	best := 0
	for g := 2; g <= p.N; g++ {
		if slot%p.Period(g) == 0 {
			best = g
		}
	}
	return best
}

// Frequency returns f_g, the long-run fraction of slots that authorize an
// upgrade to group g (for the overhead accounting this counts slots where
// the tuple for g carries an increase key, i.e. the signal reaches at
// least g... the tuple carries ε_g exactly when g itself is authorized).
func (p PeriodicUpgrades) Frequency(g int) float64 {
	if g < 2 || g > p.N {
		return 0
	}
	return 1 / float64(p.Period(g))
}

// Pacer converts a per-slot byte budget into integral packet counts,
// carrying the fractional remainder across slots so the long-run rate is
// exact. DELTA requires at least one packet per group per slot so key
// components can travel, so a slot whose budget is short of a packet
// still sends one, borrowed against later slots.
type Pacer struct {
	credit float64
}

// MaxPackets bounds, per layer, what a Pacer at the layer's GroupRate sends
// in one slot of sess: the credit a slot starts with is under one packet,
// so it sends at most its budget plus one. Shamir senders and receivers
// size their key buffers with it up front.
func (s *Session) MaxPackets() []int {
	out := make([]int, s.Rates.N)
	for g := range out {
		out[g] = int(float64(s.Rates.GroupRate(g+1))*s.SlotDur.Sec()/8/float64(s.PacketSize)) + 1
	}
	return out
}

// Packets returns how many packets of size pktBytes fit the slot budget of
// rate·slotDur, at least one, accumulating the remainder.
func (p *Pacer) Packets(rate int64, slotDur sim.Time, pktBytes int) int {
	p.credit += float64(rate) * slotDur.Sec() / 8
	n := max(int(p.credit/float64(pktBytes)), 1) // one is borrowed against future slots
	p.credit -= float64(n * pktBytes)
	return n
}
