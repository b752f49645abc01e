// Package replicated implements the receiver of a replicated multicast
// congestion control protocol (destination-set grouping in the style of
// Cheung & Ammar, the paper's §3.1.2 "Session structure" case) protected by
// the Figure 5 DELTA instantiation and SIGMA: each group of the session
// carries the *same* content at a different rate, and a receiver subscribes
// to exactly one group, switching down on loss and up on authorization.
// The source is the kit's keyed source with flid.ReplicatedKeying, and an
// attacker is flid.NewKeyAttacker over the receiver.
package replicated

import (
	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/stats"
)

// Receiver subscribes to a single rate group and moves between groups per
// the Figure 5 subscription rules, through SIGMA keys.
type Receiver struct {
	Sess   *core.Session
	host   *netsim.Host
	client *sigma.Client

	group int // current group; 0 = none
	// accs holds the DELTA accumulators of the few slots received but not
	// yet evaluated, in a tag-indexed ring as in the kernel receivers
	// (flid/batch.go has the correctness argument): an entry is claimed by
	// writing slot+1 into its tag, 0 when empty, and lookups compare the
	// exact slot. groups holds the two decisions in flight by slot parity,
	// as every key receiver does: the group in force during slot s is
	// groups[s&1] until evaluating s decides slot s+2's.
	accTag     [accW]uint32
	accs       [accW]delta.ReplicatedReceiver
	evalFloor  uint32 // first slot not yet evaluated; older data is stray
	groups     [2]int32
	joinedSlot uint32
	running    bool
	loop       *core.SlotLoop
	meter      *stats.Meter
	// Message scratch, reused every slot: the SIGMA client copies what it
	// sends.
	pairs []packet.AddrKey
	addrs []packet.Addr

	// Switches counts group changes.
	Switches uint64
	// Rejoins counts keyless re-admissions.
	Rejoins uint64
}

// accW is the accumulator ring's width, a power of two as wide as the
// kernel's tally ring.
const accW = 8

// NewReceiver builds a replicated receiver.
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr) *Receiver {
	r := &Receiver{
		Sess:   sess,
		host:   host,
		client: sigma.NewClient(host, routerAddr),
		meter:  new(stats.Meter),
	}
	for i := range r.accs {
		r.accs[i] = *delta.NewReplicatedReceiver(sess.Rates.N)
	}
	r.loop = core.NewSlotLoop(host.Scheduler(), sess, r.onEval)
	host.Handle(packet.ProtoRepl, r.onData)
	return r
}

// Level reports the current rate group — a replicated receiver's
// subscription level is the one group it sits on.
func (r *Receiver) Level() int { return r.group }

// Meter returns the meter of delivered session bytes.
func (r *Receiver) Meter() *stats.Meter { return r.meter }

// Client exposes the SIGMA client (the key attacker and tests).
func (r *Receiver) Client() *sigma.Client { return r.client }

// Start joins the session at the slowest group.
func (r *Receiver) Start() {
	if r.running {
		return
	}
	r.running = true
	cur := r.Sess.SlotAt(r.host.Scheduler().Now())
	r.group = 1
	r.groups = [2]int32{1, 1}
	r.joinedSlot = cur + 1
	r.client.SessionJoin(r.Sess.BaseAddr)
	r.loop.Schedule(cur)
}

// Stop leaves the session.
func (r *Receiver) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.client.Unsubscribe(r.Sess.Addrs())
	r.group = 0
}

// onEval fires once per slot on the loop's reusable timer.
func (r *Receiver) onEval(slot uint32) bool {
	if !r.running {
		return false
	}
	r.evaluate(slot)
	return true
}

func (r *Receiver) onData(pkt *packet.Packet) {
	h, ok := pkt.Header.(*packet.ReplHeader)
	if !ok || h.Session != r.Sess.ID {
		return
	}
	r.meter.Add(r.host.Scheduler().Now(), pkt.Size)
	if h.Slot < r.evalFloor {
		return // stray from an already evaluated slot; never read
	}
	i := h.Slot & (accW - 1)
	dr := &r.accs[i]
	if r.accTag[i] != h.Slot+1 {
		r.accTag[i] = h.Slot + 1
		dr.Begin(h.Slot)
	}
	dr.Observe(h, int(r.groups[h.Slot&1]), pkt.ECN)
}

func (r *Receiver) evaluate(slot uint32) {
	var dr *delta.ReplicatedReceiver
	if i := slot & (accW - 1); r.accTag[i] == slot+1 {
		dr = &r.accs[i]
	}
	r.evalFloor = slot + 1
	g := int(r.groups[slot&1])
	if r.joinedSlot > slot || dr == nil {
		if dr == nil && r.joinedSlot <= slot {
			r.rejoin(slot)
			return
		}
		// Carry the latest decision, not the group active during the
		// evaluated slot — mid-switch they differ.
		r.groups[core.AccessSlot(slot)&1] = int32(r.group)
		return
	}

	out := dr.Finish(g, false)
	if out.Next == 0 {
		r.rejoin(slot)
		return
	}
	r.pairs = r.Sess.KeyPairs(r.pairs[:0], out.First, out.Keys)
	r.client.Subscribe(core.AccessSlot(slot), r.pairs)
	if out.Next != g {
		// Switching groups: abandon the old one right away (a replicated
		// receiver gains nothing from holding two copies, §3.1.2).
		r.addrs = append(r.addrs[:0], r.Sess.GroupAddr(g))
		r.client.Unsubscribe(r.addrs)
		r.Switches++
		r.joinedSlot = slot + 2
	}
	r.group = out.Next
	r.groups[core.AccessSlot(slot)&1] = int32(out.Next)
}

func (r *Receiver) rejoin(slot uint32) {
	r.Rejoins++
	r.group = 1
	r.groups[core.AccessSlot(slot)&1] = 1
	r.client.SessionJoin(r.Sess.BaseAddr)
}
