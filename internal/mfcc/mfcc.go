// Package mfcc implements a network-assisted multi-flow congestion control
// scheme after Thomas et al. (PAPERS.md), as a competitor to the paper's
// DELTA/SIGMA-protected protocols:
//
//   - edge routers periodically divide their upstream bottleneck capacity
//     by the number of local subscribers and advertise the resulting
//     per-receiver fair share downstream (packet.ShareHeader);
//   - receivers translate the advertised share into a layered subscription
//     level through the session's rate schedule and adjust one group per
//     slot toward it, with drop-on-loss as a backstop;
//   - the data plane is the plain FLID-DL layered sender over IGMP.
//
// The scheme is network-assisted but not network-enforced: routers compute
// shares, receivers are trusted to honor them, and membership is plain
// IGMP. The inflated-subscription attacker therefore simply ignores the
// advertisements and joins every group — advertisement without enforcement
// buys no robustness, which is exactly the comparison the shoot-out
// campaign measures.
package mfcc

import (
	"slices"

	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// EdgeAgent is the router-resident half of the scheme: once per slot it
// divides the router's upstream bottleneck capacity by the local
// subscriber count of each session and unicasts the resulting fair share
// to every subscriber.
type EdgeAgent struct {
	router   *mcast.Router
	sessions []*core.Session
	running  bool
	period   sim.Time
	timer    *sim.Timer    // reusable per-slot advertisement timer
	subs     []packet.Addr // subscribers scratch, reused every slot

	// SharesSent counts advertisement packets emitted.
	SharesSent uint64
}

// NewEdgeAgent builds the advertiser for one gatekept edge router serving
// the given sessions.
func NewEdgeAgent(r *mcast.Router, sessions []*core.Session) *EdgeAgent {
	a := &EdgeAgent{router: r, sessions: sessions}
	a.timer = r.Network().Scheduler().NewTimer(a.advertise)
	return a
}

// Start begins the per-slot advertisement loop, phase-shifted half a slot
// so receivers hear a fresh share before each slot-end evaluation.
func (a *EdgeAgent) Start() {
	if a.running || len(a.sessions) == 0 {
		return
	}
	a.running = true
	a.period = a.sessions[0].SlotDur
	a.timer.Reset(a.period / 2)
}

// Stop halts the advertisement loop.
func (a *EdgeAgent) Stop() { a.running = false }

func (a *EdgeAgent) advertise() {
	if !a.running {
		return
	}
	net := a.router.Network()
	up := a.uplinkBps()
	for _, sess := range a.sessions {
		subs := a.subscribers(sess)
		if len(subs) == 0 {
			continue
		}
		share := up / int64(len(subs))
		for _, dst := range subs {
			hdr := net.Pool().ShareHeader()
			hdr.Session, hdr.ShareBps, hdr.Subscribers = sess.ID, share, uint32(len(subs))
			a.router.SendLocal(net.NewPacket(a.router.Addr(), dst, 0, hdr))
			a.SharesSent++
		}
	}
	a.timer.Reset(a.period)
}

// uplinkBps is the capacity the router divides among subscribers: the
// slowest link feeding it from the network core (access links from local
// hosts do not count). Re-read every period so capacity timeline events
// show up in the next advertisement.
func (a *EdgeAgent) uplinkBps() int64 {
	net := a.router.Network()
	var min int64
	for _, l := range net.Links() {
		if l.To().ID() != a.router.ID() {
			continue
		}
		if _, isHost := l.From().(*netsim.Host); isHost {
			continue
		}
		if min == 0 || l.Rate < min {
			min = l.Rate
		}
	}
	return min
}

// subscribers lists the local hosts currently entitled to the session's
// minimal group, in address order for determinism. The slice is the
// agent's scratch, valid until the next call.
func (a *EdgeAgent) subscribers(sess *core.Session) []packet.Addr {
	gate := a.router.Gatekeeper()
	if gate == nil {
		return nil
	}
	g1 := sess.GroupAddr(1)
	a.subs = a.subs[:0]
	// order-insensitive: the subscribers are sorted below
	for addr := range a.router.Locals() {
		if gate.Deliver(g1, addr) {
			a.subs = append(a.subs, addr)
		}
	}
	slices.Sort(a.subs)
	return a.subs
}

// steer is the receiver half of the scheme: the fair level the latest
// advertisement affords, and the rule following it.
type steer struct {
	sess   *core.Session
	target int // 0 before any advertisement
}

func (m *steer) onShare(pkt *packet.Packet) {
	h, ok := pkt.Header.(*packet.ShareHeader)
	if !ok || h.Session != m.sess.ID {
		return
	}
	t := m.sess.Rates.FairLevel(h.ShareBps)
	if t < 1 {
		t = 1 // the minimal group is the session floor
	}
	m.target = t
}

// rule moves one group per slot toward the advertised fair level, ignoring
// the sender's increase signal; loss drops the top group regardless of the
// advertisement and caps the target there until the next advertisement
// raises it again.
func (m *steer) rule(r *flid.Receiver, v flid.SlotView) {
	switch {
	case v.Loss:
		if r.Drop() && m.target > r.Level() {
			m.target = r.Level()
		}
	case m.target > r.Level():
		r.Add(v.Slot)
	}
}

// NewReceiver builds a well-behaved mfcc receiver on host, managing
// membership through the edge router at routerAddr: the tally kernel
// steered by the edge's share advertisements.
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr) *flid.Receiver {
	m := &steer{sess: sess}
	host.Handle(packet.ProtoShare, m.onShare)
	return flid.NewReceiver(host, sess, routerAddr, m.rule)
}
