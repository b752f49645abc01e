package sigma

import (
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Announcer is the sender-side half of SIGMA's key distribution to edge
// routers (§3.2.1): once per time slot it multicasts the address-key tuples
// for a future slot inside router-alert ("special") packets that edge
// routers intercept and never deliver to hosts. Reliability comes from
// forward error correction; the default is a repetition code with expansion
// factor z = Repeat, which overcomes the paper's 50% loss target in
// expectation with z = 2 (duplicates are deduplicated at the edge by
// (session, slot, block) identity).
//
// Tuples travel on the session's minimal group: every legitimate
// subscription level of a cumulative layered session contains it, so every
// edge router with subscribers sits on its tree. Replicated sessions
// announce on every group instead (AnnounceAll).
type Announcer struct {
	host    *netsim.Host
	session uint16
	base    packet.Addr
	groups  int
	// Repeat is the FEC expansion factor z.
	Repeat int
	// Spacing staggers the coded copies in time so a full bottleneck queue
	// cannot drop the whole slot's key material in one burst (interleaving,
	// the standard companion of FEC). Zero sends copies back-to-back.
	Spacing sim.Time

	// spaced holds the copies waiting out their Spacing, ordered by send
	// time; one timer drains it. Each copy's tie-break reservation is made
	// when it is queued, so it leaves at exactly the (time, key) an event
	// scheduled on the spot would have had (the core.SlotSender emission
	// ring, with an ordered insert because Repeat > 2 interleaves groups).
	spaced []spacedCopy
	head   int
	timer  *sim.Timer

	// Stats consumed by the §5.4 overhead accounting.
	PacketsSent uint64
	BytesSent   uint64
	HeaderBytes uint64 // common header + fixed KeyAnnounce preamble bytes
	TupleBytes  uint64
	SlotsDone   uint64
}

// NewAnnouncer builds an announcer for a session of n groups based at base,
// originating from host.
func NewAnnouncer(host *netsim.Host, session uint16, base packet.Addr, n, repeat int) *Announcer {
	if repeat < 1 {
		repeat = 1
	}
	a := &Announcer{host: host, session: session, base: base, groups: n, Repeat: repeat}
	a.timer = host.Scheduler().NewTimer(a.sendSpaced)
	return a
}

type spacedCopy struct {
	pkt *packet.Packet
	at  sim.Time
	res sim.Reservation
}

// Announce multicasts the slot's tuples on the minimal group. Every copy
// carries the tuples in its header's own array, so the caller may refill
// tuples as soon as Announce returns.
func (a *Announcer) Announce(slot uint32, tuples []packet.KeyTuple) {
	a.announceOn(a.base, slot, tuples)
	a.SlotsDone++
}

// AnnounceAll multicasts the slot's tuples on every group of the session,
// reaching edge routers of replicated sessions whose receivers subscribe to
// a single arbitrary group.
func (a *Announcer) AnnounceAll(slot uint32, tuples []packet.KeyTuple) {
	for g := 0; g < a.groups; g++ {
		a.announceOn(packet.Group(a.base, g), slot, tuples)
	}
	a.SlotsDone++
}

func (a *Announcer) announceOn(group packet.Addr, slot uint32, tuples []packet.KeyTuple) {
	net := a.host.Network()
	for i := 0; i < a.Repeat; i++ {
		hdr := net.Pool().KeyAnnounce()
		hdr.Session, hdr.Slot = a.session, slot
		hdr.FECIndex, hdr.FECTotal = uint8(i), uint8(a.Repeat)
		hdr.Tuples = append(hdr.Tuples, tuples...) // each copy owns its array
		pkt := net.NewPacket(a.host.Addr(), group, 0, hdr)
		pkt.Alert = true
		a.PacketsSent++
		a.BytesSent += uint64(pkt.Size)
		tupleBytes := len(tuples) * packet.KeyTupleWireLen
		a.HeaderBytes += uint64(packet.CommonWireLen + hdr.WireLen() - tupleBytes)
		a.TupleBytes += uint64(tupleBytes)
		if a.Spacing > 0 && i > 0 {
			a.sendAfter(sim.Time(i)*a.Spacing, pkt)
		} else {
			a.host.Send(pkt)
		}
	}
}

// sendAfter queues pkt to leave d from now.
func (a *Announcer) sendAfter(d sim.Time, pkt *packet.Packet) {
	sched := a.host.Scheduler()
	c := spacedCopy{pkt: pkt, at: sched.Now() + d, res: sched.Reserve()}
	if a.head == len(a.spaced) {
		a.spaced, a.head = a.spaced[:0], 0 // drained: rewind, reuse the array
	}
	i := len(a.spaced)
	a.spaced = append(a.spaced, c)
	for ; i > a.head && a.spaced[i-1].at > c.at; i-- {
		a.spaced[i] = a.spaced[i-1]
	}
	a.spaced[i] = c
	if i == a.head {
		a.timer.ResetReserved(c.at, c.res)
	}
}

// sendSpaced sends the copy that has come due and re-arms for the next.
func (a *Announcer) sendSpaced() {
	c := a.spaced[a.head]
	a.spaced[a.head].pkt = nil
	a.head++
	a.host.Send(c.pkt)
	if a.head < len(a.spaced) {
		next := a.spaced[a.head]
		a.timer.ResetReserved(next.at, next.res)
	}
}
