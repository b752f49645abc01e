package core

import (
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Stamp is the common part of every data-packet header: what the sender
// loop knows about a packet before the protocol adds its own fields.
type Stamp struct {
	Session    uint16
	Group      uint8
	Slot       uint32
	Seq, Count uint16
	IncreaseTo uint8
}

// SenderHooks is everything a protocol hands the slotted sender loop — a
// sender is a constructor plus these (§3.1: protocols differ by rules, not
// machinery). Hooks are bound once at construction; nil ones are skipped.
type SenderHooks struct {
	// Rate returns the bits/s group g transmits during the slot being set
	// up. Required.
	Rate func(g int) int64
	// Adapt makes the source feedback-driven: the loop tallies receiver
	// reports (packet.FeedbackHeader) and calls Adapt first thing each
	// slot — before Rate is asked, so the moved rate paces this very slot —
	// with whether any report since the previous slot said congested.
	Adapt func(congested bool)
	// Begin runs once the slot's upgrade authorizations and per-group
	// packet counts are known: DELTA senders generate and announce the
	// slot's keys here. Both slices are the loop's scratch, reused next
	// slot — copy what you keep.
	Begin func(slot uint32, auth []bool, counts []int)
	// Header builds one packet's header from its stamp; nil sends the plain
	// pooled FLID header. Called once per packet in (group, seq) order.
	Header func(st Stamp) packet.Header
}

// SlotSender is the one slotted sender loop every protocol source runs:
// per slot it reads the increase signal, converts each group's rate into a
// packet count, and spreads the packets evenly over the slot with a
// deterministic per-packet jitter against cross-group phase locking. What
// a protocol adds — its rate, its keys, its header fields — arrives through
// SenderHooks.
type SlotSender struct {
	Sess   *Session
	host   *netsim.Host
	policy UpgradePolicy
	rng    *sim.RNG
	hooks  SenderHooks

	pacers   []Pacer
	emitters []groupEmitter
	// slotTimer fires runSlot(nextSlot) at each slot start, re-armed in
	// place for the sender's lifetime.
	slotTimer *sim.Timer
	nextSlot  uint32
	// scratch holds the per-slot auth/counts buffers, reused every slot so
	// the slot loop allocates only what the hooks do.
	scratch SlotScratch
	running bool
	congest bool // any congested report since the last slot began

	// Stats.
	PacketsSent uint64
	BytesSent   uint64
	SlotsRun    uint64
	// PacketsPerGroup[g-1] counts data packets transmitted to group g.
	PacketsPerGroup []uint64
	// AuthCount[g-1] counts slots that authorized an upgrade to group g
	// (the f_g measurements of §5.4).
	AuthCount []uint64
	// FeedbackReports counts receiver reports consumed by a feedback-driven
	// source, consolidated ones via their merged Reports field.
	FeedbackReports uint64
}

// NewSlotSender builds a source on host transmitting groups 1..groups of
// sess (every group but for single-channel schemes), with the increase
// signal drawn from policy and emission jitter from rng.
func NewSlotSender(host *netsim.Host, sess *Session, groups int, policy UpgradePolicy, rng *sim.RNG, hooks SenderHooks) *SlotSender {
	sess.Rates.Validate()
	s := &SlotSender{
		Sess: sess, host: host, policy: policy, rng: rng, hooks: hooks,
		pacers:          make([]Pacer, groups),
		emitters:        make([]groupEmitter, groups),
		scratch:         NewSlotScratch(groups),
		AuthCount:       make([]uint64, groups),
		PacketsPerGroup: make([]uint64, groups),
	}
	for i := range s.emitters {
		// DELTA needs at least one packet per group per slot so key
		// components can travel; every source keeps that floor.
		s.pacers[i].MinOne = true
		e := &s.emitters[i]
		e.s, e.g = s, i+1
		e.timer = host.Scheduler().NewTimer(e.fire)
	}
	s.slotTimer = host.Scheduler().NewTimer(func() { s.runSlot(s.nextSlot) })
	if hooks.Adapt != nil {
		host.Handle(packet.ProtoFeedback, s.onFeedback)
	}
	return s
}

// Start begins the slot loop at the session epoch (or immediately if the
// epoch has passed).
func (s *SlotSender) Start() {
	if s.running {
		return
	}
	s.running = true
	sched := s.host.Scheduler()
	start := s.Sess.Epoch
	if start < sched.Now() {
		start = sched.Now()
	}
	s.nextSlot = s.Sess.SlotAt(start)
	s.slotTimer.ResetAt(start)
}

// Stop halts the sender after the current slot.
func (s *SlotSender) Stop() { s.running = false }

// onFeedback tallies one (possibly consolidated) receiver report; a merged
// report that lost its count still stands for at least one receiver.
func (s *SlotSender) onFeedback(pkt *packet.Packet) {
	h, ok := pkt.Header.(*packet.FeedbackHeader)
	if !ok || h.Session != s.Sess.ID {
		return
	}
	n := uint64(h.Reports)
	if n == 0 {
		n = 1
	}
	s.FeedbackReports += n
	if h.Congested {
		s.congest = true
	}
}

// Pool returns the pool the loop mints data packets from; a Header hook
// draws its header from the same one.
func (s *SlotSender) Pool() *packet.Pool { return s.host.Network().Pool() }

// FLIDHeader returns a pooled FLID header carrying st, for Header hooks
// that add protocol fields to the layered data header.
func (s *SlotSender) FLIDHeader(st Stamp) *packet.FLIDHeader {
	h := s.Pool().FLIDHeader()
	h.Session, h.Group, h.Slot = st.Session, st.Group, st.Slot
	h.Seq, h.Count, h.IncreaseTo = st.Seq, st.Count, st.IncreaseTo
	return h
}

func (s *SlotSender) runSlot(slot uint32) {
	if !s.running {
		return
	}
	s.SlotsRun++
	sched := s.host.Scheduler()
	n := len(s.pacers)

	if s.hooks.Adapt != nil {
		s.hooks.Adapt(s.congest)
		s.congest = false
	}

	inc := s.policy.IncreaseTo(slot)
	if inc > n {
		inc = n
	}
	auth, counts := s.scratch.Begin()
	for g := 2; g <= inc; g++ {
		auth[g-1] = true
		s.AuthCount[g-1]++
	}
	for g := 1; g <= n; g++ {
		counts[g-1] = s.pacers[g-1].Packets(s.hooks.Rate(g), s.Sess.SlotDur, s.Sess.PacketSize)
	}
	if s.hooks.Begin != nil {
		s.hooks.Begin(slot, auth, counts)
	}

	// Headers come from the pool's typed freelist and emissions ride each
	// group's ring: after the first few slots the loop allocates nothing.
	slotStart := s.Sess.SlotStart(slot)
	for g := 1; g <= n; g++ {
		cnt := counts[g-1]
		spacing := s.Sess.SlotDur / sim.Time(cnt)
		for j := 1; j <= cnt; j++ {
			st := Stamp{
				Session: s.Sess.ID, Group: uint8(g), Slot: slot,
				Seq: uint16(j), Count: uint16(cnt), IncreaseTo: uint8(inc),
			}
			var hdr packet.Header
			if s.hooks.Header != nil {
				hdr = s.hooks.Header(st)
			} else {
				hdr = s.FLIDHeader(st)
			}
			at := slotStart + sim.Time(j-1)*spacing + s.rng.Jitter(spacing/2)
			if at < sched.Now() {
				at = sched.Now()
			}
			pkt := s.host.Network().NewPacket(s.host.Addr(), s.Sess.GroupAddr(g), s.Sess.PacketSize, hdr)
			s.emitters[g-1].push(pkt, at, sched.Reserve())
		}
	}

	s.nextSlot = slot + 1
	s.slotTimer.ResetAt(s.Sess.SlotStart(slot + 1))
}

// groupEmitter drains one group's slot emissions through a single
// reusable timer and a FIFO ring (the netsim.Link flight-ring pattern):
// per-packet jitter never exceeds half the intra-group spacing, so a
// group's emission times are strictly increasing and a FIFO suffices.
// Each packet's tie-break reservation is made at queue time and fired via
// ResetReserved, so every emission happens at exactly the (time, key) an
// individually scheduled closure would have used — without allocating a
// closure and an event per packet.
type groupEmitter struct {
	s     *SlotSender
	g     int
	timer *sim.Timer
	ring  []emission
	head  int
}

type emission struct {
	pkt *packet.Packet
	at  sim.Time
	res sim.Reservation
}

func (e *groupEmitter) push(pkt *packet.Packet, at sim.Time, res sim.Reservation) {
	if e.head == len(e.ring) {
		// Fully drained (every slot drains before the next is scheduled):
		// rewind so the backing array is reused instead of creeping.
		e.ring = e.ring[:0]
		e.head = 0
	}
	e.ring = append(e.ring, emission{pkt: pkt, at: at, res: res})
	if len(e.ring)-e.head == 1 {
		e.timer.ResetReserved(at, res)
	}
}

func (e *groupEmitter) fire() {
	em := e.ring[e.head]
	e.ring[e.head].pkt = nil
	e.head++
	s := e.s
	s.PacketsSent++
	s.PacketsPerGroup[e.g-1]++
	s.BytesSent += uint64(em.pkt.Size)
	s.host.Send(em.pkt)
	if e.head < len(e.ring) {
		next := e.ring[e.head]
		e.timer.ResetReserved(next.at, next.res)
	}
}

// ObservedFrequency returns the measured f_g over the slots run so far.
func (s *SlotSender) ObservedFrequency(g int) float64 {
	if s.SlotsRun == 0 || g < 2 || g > len(s.AuthCount) {
		return 0
	}
	return float64(s.AuthCount[g-1]) / float64(s.SlotsRun)
}

// SendReport unicasts one leaf status report for slot from host toward dst
// (the session source): count receivers at up to maxLevel, congested or
// not. Routers running hierarchical consolidation merge it with sibling
// reports on the way up. It reports whether anything was sent — a session
// with no wired source has nowhere to report to.
func (s *Session) SendReport(host *netsim.Host, dst packet.Addr, slot uint32, count uint64, maxLevel int, congested bool) bool {
	if dst == 0 {
		return false
	}
	h := host.Pool().FeedbackHeader()
	h.Session, h.Slot, h.Count = s.ID, slot, count
	h.MaxLevel, h.Congested, h.Reports = uint8(maxLevel), congested, 1
	host.Send(host.NewPacket(dst, 0, h))
	return true
}
