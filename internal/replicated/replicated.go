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
	comp, dec := s.rs.Fields(int(st.Group))
	return &packet.ReplHeader{
		Session: st.Session, Group: st.Group, Slot: st.Slot,
		Seq: st.Seq, Count: st.Count, IncreaseTo: st.IncreaseTo,
		HasDelta: true, Component: comp, Decrease: dec,
	}
}

// Receiver subscribes to a single rate group and moves between groups per
// the Figure 5 subscription rules, through SIGMA keys.
type Receiver struct {
	Sess   *core.Session
	host   *netsim.Host
	client *sigma.Client

	group      int // current group; 0 = none
	recvs      map[uint32]*delta.ReplicatedReceiver
	groupAt    map[uint32]int
	joinedSlot uint32
	running    bool
	loop       *core.SlotLoop
	meter      *stats.Meter

	// Switches counts group changes.
	Switches uint64
	// Rejoins counts keyless re-admissions.
	Rejoins uint64
}

// NewReceiver builds a replicated receiver.
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr) *Receiver {
	r := &Receiver{
		Sess:    sess,
		host:    host,
		client:  sigma.NewClient(host, routerAddr),
		recvs:   make(map[uint32]*delta.ReplicatedReceiver),
		groupAt: make(map[uint32]int),
		meter:   stats.NewMeter(sim.Second),
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
	r.groupAt[cur] = 1
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
	dr := r.recvs[h.Slot]
	if dr == nil {
		dr = delta.NewReplicatedReceiver(r.Sess.Rates.N)
		dr.Begin(h.Slot)
		r.recvs[h.Slot] = dr
	}
	g := r.groupDuring(h.Slot)
	dr.Observe(h, g, pkt.ECN)
}

// groupDuring returns the group subscribed during a slot.
func (r *Receiver) groupDuring(slot uint32) int {
	for s := slot; ; s-- {
		if g, ok := r.groupAt[s]; ok {
			return g
		}
		if s == 0 || slot-s > 16 {
			return r.group
		}
	}
}

func (r *Receiver) evaluate(slot uint32) {
	dr := r.recvs[slot]
	delete(r.recvs, slot)
	for s := range r.recvs {
		if s+4 < slot {
			delete(r.recvs, s)
		}
	}
	for s := range r.groupAt {
		if s+8 < slot {
			delete(r.groupAt, s)
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
		r.groupAt[core.AccessSlot(slot)] = r.group
		return
	}

	out := dr.Finish(g, false)
	if out.Next == 0 {
		r.rejoin(slot)
		return
	}
	r.client.Subscribe(core.AccessSlot(slot), r.Sess.KeyPairs(out.Keys))
	if out.Next != g {
		// Switching groups: abandon the old one right away (a replicated
		// receiver gains nothing from holding two copies, §3.1.2).
		r.client.Unsubscribe([]packet.Addr{r.Sess.GroupAddr(g)})
		r.Switches++
		r.joinedSlot = slot + 2
	}
	r.group = out.Next
	r.groupAt[core.AccessSlot(slot)] = out.Next
}

func (r *Receiver) rejoin(slot uint32) {
	r.Rejoins++
	r.group = 1
	r.groupAt[core.AccessSlot(slot)] = 1
	r.client.SessionJoin(r.Sess.BaseAddr)
}
