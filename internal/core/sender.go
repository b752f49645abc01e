package core

import (
	"fmt"

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
	// pooled FLID header. It is called at send time, at most once per
	// packet: a packet its first hop would drop unseen goes out without a
	// header (see groupEmitter.fire), so it reads the stamp's Seq rather
	// than counting calls. Anything it draws from a shared stream must be
	// drawn in Begin, and every header of one source must have one wire
	// length.
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
	policy PeriodicUpgrades
	rng    *sim.RNG
	hooks  SenderHooks

	pacers   []Pacer
	emitters []groupEmitter
	// slotTimer fires runSlot(nextSlot) at each slot start, re-armed in
	// place for the sender's lifetime.
	slotTimer *sim.Timer
	nextSlot  uint32
	// auth and counts are the per-slot buffers runSlot fills, reused every
	// slot so the loop allocates only what the hooks do. Reuse is safe
	// because every delta BeginSlot implementation copies what it keeps.
	auth    []bool
	counts  []int
	running bool
	congest bool // any congested report since the last slot began
	// wireSize is the Size of the source's data packets (the session's
	// packet size, floored at the header's bytes), learnt from the first
	// one sent; until then no packet is sent as doomed.
	wireSize int

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
func NewSlotSender(host *netsim.Host, sess *Session, groups int, policy PeriodicUpgrades, rng *sim.RNG, hooks SenderHooks) *SlotSender {
	if err := sess.Rates.Check(); err != nil {
		panic(err)
	}
	s := &SlotSender{
		Sess: sess, host: host, policy: policy, rng: rng, hooks: hooks,
		pacers:          make([]Pacer, groups),
		emitters:        make([]groupEmitter, groups),
		auth:            make([]bool, groups),
		counts:          make([]int, groups),
		AuthCount:       make([]uint64, groups),
		PacketsPerGroup: make([]uint64, groups),
	}
	for i := range s.emitters {
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

// Start begins the slot loop now, in the slot the clock is in. A Start
// before a Stop has taken effect — the slot the source was stopped in is
// still sending — resumes the loop at the next slot instead of running the
// current one a second time.
func (s *SlotSender) Start() {
	if s.running {
		return
	}
	s.running = true
	if s.slotTimer.Active() {
		return
	}
	now := s.host.Scheduler().Now()
	s.nextSlot = s.Sess.SlotAt(now)
	s.slotTimer.ResetAt(now)
}

// Stop halts the sender after the current slot. The slot's emission
// rings hold send times, not packets, so a stopped source holds no pool
// references.
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
	auth, counts := s.auth, s.counts
	clear(auth)
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

	// Each group's slot is one stamp plus a ring of send times; fire mints
	// each packet at its send time, so after the first few slots the loop
	// allocates nothing and the pool holds only packets in flight. Jitter
	// and the tie-break reservations are drawn here, in (group, seq) order.
	slotStart := s.Sess.SlotStart(slot)
	akey := sched.Now()
	for g := 1; g <= n; g++ {
		cnt := counts[g-1]
		spacing := s.Sess.SlotDur / sim.Time(cnt)
		e := &s.emitters[g-1]
		e.reserve(Stamp{
			Session: s.Sess.ID, Group: uint8(g), Slot: slot,
			Count: uint16(cnt), IncreaseTo: uint8(inc),
		}, cnt, akey)
		for j := 1; j <= cnt; j++ {
			at := slotStart + sim.Time(j-1)*spacing + s.rng.Jitter(spacing/2)
			if at < akey {
				at = akey
			}
			e.push(at, sched.Reserve())
		}
	}

	s.nextSlot = slot + 1
	s.slotTimer.ResetAt(s.Sess.SlotStart(slot + 1))
}

// groupEmitter drains one group's slot emissions through a single
// reusable timer and a FIFO ring (the netsim.Link flight-ring pattern):
// per-packet jitter never exceeds half the intra-group spacing, so a
// group's emission times are strictly increasing, every one falls inside
// its slot, and a FIFO suffices. Each emission's tie-break reservation is
// made at slot start and fired via ResetReserved, so every packet leaves
// at exactly the (time, key) an individually scheduled closure would have
// used — without allocating a closure and an event per packet. The packet
// itself is minted only when it fires.
//
// Only the send time varies within a group's slot, so the ring holds send
// times alone: the stamp is stored once, and runSlot draws the group's
// reservations back to back, so packet i (0-based) was reserved at
// (akey, seq0+i) and carries Seq i+1. An entry stays a full sim.Time: a
// 4-byte jitter offset would overflow on slots longer than 8.6 s, and a
// slot has no upper bound.
type groupEmitter struct {
	s     *SlotSender
	g     int
	timer *sim.Timer
	st    Stamp      // the queued slot's stamp, Seq unset
	ring  []sim.Time // send times in seq order
	head  int
	// akey and seq0 are the queued slot's first reservation: the instant
	// the slot was set up and its scheduler sequence.
	akey sim.Time
	seq0 uint64
}

// reserve readies the ring for a slot of n emissions stamped st and
// reserved at akey. The previous slot has drained (its last emission
// precedes this slot's start), so the ring rewinds and its backing array is
// reused instead of creeping; one too small for the slot is replaced once,
// with headroom for the pacer's slot-to-slot wobble, so the slot's pushes
// never double it.
func (e *groupEmitter) reserve(st Stamp, n int, akey sim.Time) {
	if e.head != len(e.ring) {
		panic(fmt.Sprintf("core: group %d begins slot at %v with %d emissions of the last still queued", e.g, akey, len(e.ring)-e.head))
	}
	e.st, e.ring, e.head, e.akey = st, e.ring[:0], 0, akey
	if cap(e.ring) < n {
		e.ring = make([]sim.Time, 0, n+n/8+1)
	}
}

// push queues the next emission of the slot, sent at at under res; the
// first one arms the timer and fixes seq0.
func (e *groupEmitter) push(at sim.Time, res sim.Reservation) {
	e.ring = append(e.ring, at)
	if len(e.ring) == 1 {
		e.seq0 = res.Seq
		e.timer.ResetReserved(at, res)
	}
}

// fire mints and sends the head emission, then arms the next. When the
// first hop would drop the packet unseen (netsim.Host.SendIfDoomed), a
// headerless stand-in of the same size goes in its place and no header is
// built: headers are random-access by Seq, so every other packet's header
// is unchanged.
func (e *groupEmitter) fire() {
	e.head++
	s := e.s
	dst := s.Sess.GroupAddr(e.g)
	size := s.wireSize
	if size == 0 || !s.host.SendIfDoomed(dst, size) {
		st := e.st
		st.Seq = uint16(e.head)
		var hdr packet.Header
		if s.hooks.Header != nil {
			hdr = s.hooks.Header(st)
		} else {
			hdr = s.FLIDHeader(st)
		}
		pkt := s.host.Network().NewPacket(s.host.Addr(), dst, s.Sess.PacketSize, hdr)
		size = pkt.Size
		s.wireSize = size
		s.host.Send(pkt)
	}
	s.PacketsSent++
	s.PacketsPerGroup[e.g-1]++
	s.BytesSent += uint64(size)
	if e.head < len(e.ring) {
		e.timer.ResetReserved(e.ring[e.head], sim.Reservation{Akey: e.akey, Seq: e.seq0 + uint64(e.head)})
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
