package sigma

import (
	"deltasigma/internal/core"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// ForgeAttack is the feedback-forging adversary. The paper's threat model
// (§2.2) assumes control-plane messages carry their true origin; SIGMA's
// edge controller trusts a packet's source address both to locate the
// arrival interface's neighbor and to decide whose grants an unsubscribe
// tears down. A forging receiver exploits that twice per slot: late in
// each slot — after honest receivers have re-subscribed for the upcoming
// access slot, so the teardown lands on fresh grants — it sends one
// spoofed SIGMA unsubscribe per victim on the same edge, evicting the
// victim's entire grant (grace window included) until the victim's own
// next subscription restores it; and it injects a bogus consolidated
// feedback report (huge receiver count, congested) toward the session
// source to poison any upstream consumer of the feedback plane.
type ForgeAttack struct {
	sess       *core.Session
	host       *netsim.Host
	router     packet.Addr
	feedbackTo packet.Addr
	timer      *sim.Timer

	inflated bool
	victims  []packet.Addr

	// ForgedUnsubscribes counts spoofed unsubscribe messages sent.
	ForgedUnsubscribes uint64
	// ForgedReports counts bogus feedback reports injected.
	ForgedReports uint64
}

// NewForgeAttack builds the forger on host against the edge at routerAddr,
// aiming bogus feedback at feedbackTo (the session source).
func NewForgeAttack(host *netsim.Host, sess *core.Session, routerAddr, feedbackTo packet.Addr) *ForgeAttack {
	f := &ForgeAttack{
		sess:       sess,
		host:       host,
		router:     routerAddr,
		feedbackTo: feedbackTo,
	}
	f.timer = host.Scheduler().NewTimer(f.forgeSlot)
	return f
}

// Arm sets the victim addresses whose grants the forger tears down —
// honest receivers attached to the same edge router, whose spoofed source
// addresses the controller will accept as local.
func (f *ForgeAttack) Arm(victims []packet.Addr) {
	f.victims = append(f.victims[:0], victims...)
}

// Inflate starts the per-slot forging loop.
func (f *ForgeAttack) Inflate() {
	if f.inflated {
		return
	}
	f.inflated = true
	f.forgeSlot()
}

// Deflate stops the forging loop; pending forgery for this slot is
// cancelled along with the timer.
func (f *ForgeAttack) Deflate() {
	if !f.inflated {
		return
	}
	f.inflated = false
	f.timer.Stop()
}

// Inflated reports whether the attack is active.
func (f *ForgeAttack) Inflated() bool { return f.inflated }

// forgedCount is the receiver population a single bogus feedback report
// claims to represent.
const forgedCount = 1 << 20

func (f *ForgeAttack) forgeSlot() {
	if !f.inflated {
		return
	}
	cur := f.sess.SlotAt(f.host.Scheduler().Now())
	for _, v := range f.victims {
		hdr := f.host.Pool().SigmaHeader()
		hdr.Kind = packet.SigmaUnsubscribe
		for g := 1; g <= f.sess.Rates.N; g++ {
			hdr.Addrs = append(hdr.Addrs, f.sess.GroupAddr(g))
		}
		f.host.Send(f.host.NewPacketFrom(v, f.router, 0, hdr))
		f.ForgedUnsubscribes++
	}
	if f.sess.SendReport(f.host, f.feedbackTo, cur, forgedCount, f.sess.Rates.N, true) {
		f.ForgedReports++
	}
	// 0.9 into the next slot: behind the honest ~0.8-slot re-subscribes,
	// so each teardown outlives the slot's legitimate grant refresh.
	f.timer.ResetAt(f.sess.SlotStart(cur+1) + 9*f.sess.SlotDur/10)
}
