// Package replicated implements a replicated multicast congestion control
// protocol (destination-set grouping in the style of Cheung & Ammar, the
// paper's §3.1.2 "Session structure" case) protected by the Figure 5 DELTA
// instantiation and SIGMA: each group of the session carries the *same*
// content at a different rate, and a receiver subscribes to exactly one
// group, switching down on loss and up on authorization.
package replicated

import (
	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
)

// Sender transmits every rate group each slot and runs the Figure 5 key
// generation: the shared sender loop pacing group g at the schedule's
// cumulative rate of level g (each group is a complete stream).
type Sender struct {
	*core.SlotSender
	dsend *delta.ReplicatedSender
	rs    *delta.ReplicatedSlot // keys of the slot being emitted
	ann   *sigma.Announcer
}

// NewSender builds a protected replicated sender.
func NewSender(host *netsim.Host, sess *core.Session, policy core.UpgradePolicy, rng *sim.RNG, repeat int) *Sender {
	s := &Sender{}
	s.SlotSender = core.NewSlotSender(host, sess, sess.Rates.N, policy, rng, core.SenderHooks{
		Rate: sess.Rates.Cumulative, Begin: s.beginSlot, Header: s.header,
	})
	src := keys.NewSource(keys.DefaultBits, rng.Fork().Uint64)
	s.dsend = delta.NewReplicatedSender(sess.Rates.N, src)
	s.ann = sigma.NewAnnouncer(host, sess.ID, sess.BaseAddr, sess.Rates.N, repeat)
	s.ann.Spacing = sess.SlotDur / 4
	return s
}

// beginSlot generates the slot's keys and announces them to every group: a
// replicated receiver sits on only one tree.
func (s *Sender) beginSlot(slot uint32, auth []bool, counts []int) {
	s.rs = s.dsend.BeginSlot(slot, auth, counts)
	s.ann.AnnounceAll(core.AccessSlot(slot), s.rs.Keys.Tuples(s.Sess.BaseAddr))
}

func (s *Sender) header(st core.Stamp) packet.Header {
	h := s.Pool().ReplHeader()
	h.Session, h.Group, h.Slot = st.Session, st.Group, st.Slot
	h.Seq, h.Count, h.IncreaseTo = st.Seq, st.Count, st.IncreaseTo
	h.HasDelta = true
	h.Component, h.Decrease = s.rs.Fields(int(st.Group))
	return h
}

// Receiver subscribes to a single rate group and moves between groups per
// the Figure 5 subscription rules, through SIGMA keys.
type Receiver struct {
	Sess   *core.Session
	host   *netsim.Host
	client *sigma.Client

	group int // current group; 0 = none
	// Per-slot state lives in two tag-indexed rings, as in the kernel
	// receivers (flid/batch.go has the correctness argument): an entry is
	// claimed by writing slot+1 into its tag, 0 when empty, and lookups
	// compare the exact slot. accs holds the DELTA accumulators of the few
	// slots received but not yet evaluated; groups holds the group in
	// force from each recent data slot on.
	accTag     [accW]uint32
	accs       [accW]delta.ReplicatedReceiver
	evalFloor  uint32 // first slot not yet evaluated; older data is stray
	groupTag   [groupW]uint32
	groupVal   [groupW]int
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

// Ring widths, powers of two: accumulators as wide as the kernel's tally
// ring, groups wide enough for the eleven slots a record stays live (eight
// behind the evaluated slot, two ahead).
const (
	accW   = 8
	groupW = 16
)

// NewReceiver builds a replicated receiver.
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr) *Receiver {
	r := &Receiver{
		Sess:   sess,
		host:   host,
		client: sigma.NewClient(host, routerAddr),
		meter:  stats.NewMeter(sim.Second),
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

// Start joins the session at the slowest group.
func (r *Receiver) Start() {
	if r.running {
		return
	}
	r.running = true
	cur := r.Sess.SlotAt(r.host.Scheduler().Now())
	r.group = 1
	r.setGroupAt(cur, 1)
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
	dr.Observe(h, r.groupDuring(h.Slot), pkt.ECN)
}

// setGroupAt records the group in force from data slot slot.
func (r *Receiver) setGroupAt(slot uint32, g int) {
	r.groupTag[slot&(groupW-1)] = slot + 1
	r.groupVal[slot&(groupW-1)] = g
}

// groupDuring returns the group subscribed during a slot: the most recent
// record at or before it, within sixteen slots, else the current group.
func (r *Receiver) groupDuring(slot uint32) int {
	for s := slot; ; s-- {
		if r.groupTag[s&(groupW-1)] == s+1 {
			return r.groupVal[s&(groupW-1)]
		}
		if s == 0 || slot-s > 16 {
			return r.group
		}
	}
}

func (r *Receiver) evaluate(slot uint32) {
	var dr *delta.ReplicatedReceiver
	if i := slot & (accW - 1); r.accTag[i] == slot+1 {
		dr = &r.accs[i]
	}
	r.evalFloor = slot + 1
	// Records more than eight slots old are forgotten, so groupDuring
	// falls back to the current group rather than a decision that stale.
	for i, t := range r.groupTag {
		if t != 0 && t-1+8 < slot {
			r.groupTag[i] = 0
		}
	}
	g := r.groupDuring(slot)
	if g == 0 {
		g = 1
	}
	if r.joinedSlot > slot || dr == nil {
		if dr == nil && r.joinedSlot <= slot {
			r.rejoin(slot)
			return
		}
		// Carry the latest decision, not the group active during the
		// evaluated slot — mid-switch they differ.
		r.setGroupAt(core.AccessSlot(slot), r.group)
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
	r.setGroupAt(core.AccessSlot(slot), out.Next)
}

func (r *Receiver) rejoin(slot uint32) {
	r.Rejoins++
	r.group = 1
	r.setGroupAt(core.AccessSlot(slot), 1)
	r.client.SessionJoin(r.Sess.BaseAddr)
}
