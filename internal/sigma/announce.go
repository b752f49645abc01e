package sigma

import (
	"deltasigma/internal/core"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Announcer is the sender-side half of SIGMA's key distribution to edge
// routers (§3.2.1): once per time slot it multicasts the address-key tuples
// for a future slot inside router-alert ("special") packets that edge
// routers intercept and never deliver to hosts. Reliability comes from
// forward error correction: a repetition code with expansion factor
// z = Repeat, which overcomes the paper's 50% loss target in expectation
// (duplicates are deduplicated at the edge by (session, slot) identity).
// The second copy leaves a quarter slot after the first, so a full
// bottleneck queue cannot drop the whole slot's key material in one burst
// (interleaving, the standard companion of FEC).
//
// Tuples travel on the session's minimal group: every legitimate
// subscription level of a cumulative layered session contains it, so every
// edge router with subscribers sits on its tree. Replicated sessions
// announce on every group instead, since a receiver sits on one arbitrary
// group's tree.
type Announcer struct {
	host    *netsim.Host
	session uint16
	base    packet.Addr
	groups  int      // groups from base each announcement goes on
	spacing sim.Time // a quarter slot: how long each repeat copy waits

	// spaced holds the copies waiting out their spacing. Every copy waits
	// the same spacing from the Announce that queued it, and Announce runs
	// at nondecreasing times, so appending keeps the queue in send-time
	// order; one timer drains it. Each copy's tie-break reservation is made
	// when it is queued, so it leaves at exactly the (time, key) an event
	// scheduled on the spot would have had (the core.SlotSender emission
	// ring).
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

// Repeat is the FEC expansion factor z: copies per announcement and group
// (§5.4 fixes z = 2).
const Repeat = 2

// NewAnnouncer builds an announcer for sess originating from host that
// announces on the n groups from the session's base: 1 for a cumulative
// layered session, every group for a replicated one.
func NewAnnouncer(host *netsim.Host, sess *core.Session, n int) *Announcer {
	a := &Announcer{host: host, session: sess.ID, base: sess.BaseAddr, groups: n, spacing: sess.SlotDur / 4}
	a.timer = host.Scheduler().NewTimer(a.sendSpaced)
	return a
}

type spacedCopy struct {
	pkt *packet.Packet
	at  sim.Time
	res sim.Reservation
}

// Announce multicasts the slot's tuples on the announcer's groups. Every
// copy carries the tuples in its header's own array, so the caller may
// refill tuples as soon as Announce returns.
func (a *Announcer) Announce(slot uint32, tuples []packet.KeyTuple) {
	for g := 0; g < a.groups; g++ {
		a.announceOn(packet.Group(a.base, g), slot, tuples)
	}
	a.SlotsDone++
}

func (a *Announcer) announceOn(group packet.Addr, slot uint32, tuples []packet.KeyTuple) {
	net := a.host.Network()
	for i := 0; i < Repeat; i++ {
		hdr := net.Pool().KeyAnnounce()
		hdr.Session, hdr.Slot = a.session, slot
		hdr.FECIndex, hdr.FECTotal = uint8(i), Repeat
		hdr.Tuples = append(hdr.Tuples, tuples...) // each copy owns its array
		pkt := net.NewPacket(a.host.Addr(), group, 0, hdr)
		pkt.Alert = true
		a.PacketsSent++
		a.BytesSent += uint64(pkt.Size)
		tupleBytes := len(tuples) * packet.KeyTupleWireLen
		a.HeaderBytes += uint64(packet.CommonWireLen + hdr.WireLen() - tupleBytes)
		a.TupleBytes += uint64(tupleBytes)
		if i > 0 {
			a.sendLater(pkt)
		} else {
			a.host.Send(pkt)
		}
	}
}

// sendLater queues pkt to leave one spacing from now.
func (a *Announcer) sendLater(pkt *packet.Packet) {
	sched := a.host.Scheduler()
	c := spacedCopy{pkt: pkt, at: sched.Now() + a.spacing, res: sched.Reserve()}
	if a.head == len(a.spaced) {
		a.spaced, a.head = a.spaced[:0], 0 // drained: rewind, reuse the array
		a.timer.ResetReserved(c.at, c.res)
	}
	a.spaced = append(a.spaced, c)
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
