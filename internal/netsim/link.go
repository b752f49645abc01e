package netsim

import (
	"fmt"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Queue is a drop-tail FIFO bounded in bytes, with optional threshold ECN
// marking for the ECN-driven protocol variant (§3.1.2 "Congestion
// notification"). Storage is a head-indexed ring: a continuously busy
// bottleneck cycles packets through a fixed backing array instead of
// creeping down an ever-growing slice.
//
// The queue participates in the pooled packet lifecycle: it owns one
// reference to every queued packet, releases it on a drop-tail drop, and
// hands it onward on pop. ECN marking goes through Writable, so a shared
// multicast envelope is copied-on-write while a sole owner is marked in
// place.
type Queue struct {
	CapBytes  int // maximum queued bytes; <=0 means unbounded
	MarkAt    int // ECN-mark packets enqueued beyond this many bytes; 0 disables
	bytes     int
	ring      ring[*packet.Packet]
	Dropped   uint64
	Marked    uint64
	MaxFilled int
}

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.ring.len() }

// Bytes reports the queued byte total.
func (q *Queue) Bytes() int { return q.bytes }

// push appends pkt if it fits, returning false on a drop-tail drop (the
// dropped packet's reference is released). When the queue is in marking mode
// and occupancy exceeds MarkAt, the packet is CE-marked instead of dropped
// (marking replaces loss as the congestion signal; capacity still backstops).
func (q *Queue) push(pkt *packet.Packet) bool {
	if q.CapBytes > 0 && q.bytes+pkt.Size > q.CapBytes {
		q.Dropped++
		pkt.Release()
		return false
	}
	if q.MarkAt > 0 && q.bytes >= q.MarkAt {
		pkt = pkt.Writable()
		pkt.ECN = true
		q.Marked++
	}
	q.ring.push(pkt)
	q.bytes += pkt.Size
	if q.bytes > q.MaxFilled {
		q.MaxFilled = q.bytes
	}
	return true
}

// pop removes and returns the head packet, or nil when empty.
func (q *Queue) pop() *packet.Packet {
	pkt := q.ring.pop()
	if pkt != nil {
		q.bytes -= pkt.Size
	}
	return pkt
}

// flight is one packet in propagation: serialization finished, delivery
// pending at `at`. res is the tie-break reservation made when the flight
// was created, so the single reusable delivery timer fires each flight
// exactly where an individually scheduled event would have.
type flight struct {
	pkt *packet.Packet
	at  sim.Time
	res sim.Reservation
}

// Link is a unidirectional rate/delay pipe with an attached queue. A duplex
// connection is a pair of Links. Transmission serializes packets at Rate;
// after serialization the packet propagates for Delay and is delivered to
// the destination node.
//
// The steady-state transmission path allocates nothing: one reusable timer
// tracks the serialization of the head packet, a second walks the FIFO of
// in-flight packets (propagation delay is constant per link, so deliveries
// are strictly FIFO), and the in-flight ring recycles its backing array.
type Link struct {
	src, dst Node
	rev      *Link    // the duplex partner, dst→src
	Rate     int64    // bits per second; mutate via SetRate only
	Delay    sim.Time // propagation delay; mutate via SetDelay only
	Queue    Queue
	sched    *sim.Scheduler
	net      *Network
	busy     bool
	down     bool
	// bottleneck marks a link whose rate, delay or state may change
	// mid-run (MarkBottleneck): no arrival over it is predicted.
	bottleneck bool

	cur          *packet.Packet // packet currently serializing
	txTimer      sim.Timer      // fires when cur finishes serializing
	deliverTimer sim.Timer      // fires at the head flight's delivery time
	flights      ring[flight]   // FIFO of packets in propagation
	cut          *cutPort       // non-nil when this link crosses a shard boundary

	// capBits integrates available capacity — Rate while up, zero while
	// down — in bits from time zero to lastAccrue, so utilization stays
	// correct when SetRate/Down/Up re-parameterize the link mid-run.
	capBits    float64
	lastAccrue sim.Time

	// Arrived counts every packet handed to Send, whatever its fate —
	// the left-hand side of the link conservation law the invariant layer
	// audits: Arrived == Delivered + Queue.Dropped + DroppedDown +
	// Queue.Len() + InFlight() + Serializing().
	Arrived uint64
	// Delivered counts packets handed to dst, and doomed stand-ins at
	// tx-done, where they end.
	Delivered uint64
	// SentBytes counts bytes that completed serialization.
	SentBytes uint64
	// MaxPacketBytes is the largest packet that entered serialization; the
	// utilization invariant allows this much slack per rate change.
	MaxPacketBytes int
	// RateChanges counts SetRate calls. Each downward re-rate can let the
	// packet serializing at that moment finish on the old (faster) timing,
	// so the capacity-integral bound on SentBytes carries one packet of
	// slack per change.
	RateChanges uint64
	// DroppedDown counts packets discarded because the link was down:
	// arrivals while down plus queued and in-flight packets flushed by the
	// Down transition itself.
	DroppedDown uint64
	// Doomed counts the stand-ins for doomed packets (Host.SendIfDoomed)
	// that finished serializing. Each is counted in Delivered as well, at
	// tx-done, since nothing downstream would have seen it.
	Doomed uint64
	// OnDeliver, when set, observes every delivery (tracing hook). The
	// packet is released after delivery; observers must not retain it
	// without Retain.
	OnDeliver func(pkt *packet.Packet)
}

// init wires the link's reusable timers; called once by Connect.
func (l *Link) init() {
	l.txTimer = l.sched.MakeTimer(l.onTxDone)
	l.deliverTimer = l.sched.MakeTimer(l.onDeliver)
}

// From returns the upstream node.
func (l *Link) From() Node { return l.src }

// To returns the downstream node.
func (l *Link) To() Node { return l.dst }

// String labels the link for traces.
func (l *Link) String() string {
	return fmt.Sprintf("%s->%s", l.src.Name(), l.dst.Name())
}

// txTime returns the serialization time of size bytes at the link rate.
func (l *Link) txTime(size int) sim.Time {
	return sim.Time(int64(size) * 8 * int64(sim.Second) / l.Rate)
}

// Send enqueues pkt for transmission, taking ownership of one reference;
// a drop-tail drop — or a down link — releases it.
func (l *Link) Send(pkt *packet.Packet) {
	l.Arrived++
	if l.down {
		l.DroppedDown++
		pkt.Release()
		return
	}
	if !l.busy && l.Queue.Len() == 0 {
		// Idle: the packet passes through the empty queue at once, so it
		// skips the ring. The drop and the high-water mark are push's at
		// zero occupancy, where no ECN mark can fire.
		if l.Queue.CapBytes > 0 && pkt.Size > l.Queue.CapBytes {
			l.Queue.Dropped++
			pkt.Release()
			return
		}
		l.Queue.MaxFilled = max(l.Queue.MaxFilled, pkt.Size)
		l.transmit(pkt)
		return
	}
	if !l.Queue.push(pkt) {
		return
	}
	if !l.busy {
		l.startTransmission()
	}
}

// departure is when a size-byte packet accepted now would finish
// serializing, behind the packet serializing and the queue in FIFO order.
// The queue and the packet are timed as one block of bytes. Each packet's
// serialization time rounds down to the nanosecond, so that is exact when
// a byte takes a whole number of nanoseconds (800 on the 10 Mbps side
// links) and never earlier than the real departure otherwise.
func (l *Link) departure(size int) sim.Time {
	if !l.busy {
		return l.sched.Now() + l.txTime(size)
	}
	return l.txTimer.When() + l.txTime(l.Queue.Bytes()+size)
}

// MarkBottleneck declares that the link's rate, delay or up state may
// change mid-run. The doomed-packet check predicts no arrival over such a
// link, so every link a run re-parameterizes must be marked before its
// traffic starts.
func (l *Link) MarkBottleneck() { l.bottleneck = true }

// Reverse returns the duplex partner: the link from To back to From.
func (l *Link) Reverse() *Link { return l.rev }

func (l *Link) startTransmission() {
	pkt := l.Queue.pop()
	if pkt == nil {
		l.busy = false
		return
	}
	l.transmit(pkt)
}

// transmit starts serializing pkt.
func (l *Link) transmit(pkt *packet.Packet) {
	l.busy = true
	l.cur = pkt
	if pkt.Size > l.MaxPacketBytes {
		l.MaxPacketBytes = pkt.Size
	}
	l.txTimer.Reset(l.txTime(pkt.Size))
}

// onTxDone finishes serializing the current packet: it enters propagation
// (pipelined — the next packet starts serializing immediately) and is
// delivered Delay later by the delivery timer.
func (l *Link) onTxDone() {
	pkt := l.cur
	l.cur = nil
	l.SentBytes += uint64(pkt.Size)
	if pkt.Doomed {
		// The first hop would have dropped it unseen: it ends here, with
		// no flight, no reservation and no delivery event.
		l.Delivered++
		l.Doomed++
		pkt.Release()
		l.startTransmission()
		return
	}
	if l.cut != nil {
		// Cross-shard propagation: the packet leaves this shard. Park the
		// original for the barrier hand-off and post the delivery into the
		// destination shard at the usual arrival time — the link's delay is
		// the cut's lookahead, so the post always satisfies the conservative
		// contract exactly.
		l.cut.xfer.push(pkt)
		l.cut.edge.Post(l.sched.Now()+l.Delay, l.cut.deliver)
		l.startTransmission()
		return
	}
	f := flight{pkt: pkt, at: l.sched.Now() + l.Delay, res: l.sched.Reserve()}
	wasEmpty := l.flights.len() == 0
	l.flights.push(f)
	if wasEmpty {
		l.deliverTimer.ResetReserved(f.at, f.res)
	}
	l.startTransmission()
}

// onDeliver hands the head in-flight packet to the destination node and
// re-arms for the next one. Receive takes over the packet's reference.
func (l *Link) onDeliver() {
	f := l.flights.pop()
	l.Delivered++
	if l.OnDeliver != nil {
		l.OnDeliver(f.pkt)
	}
	l.dst.Receive(f.pkt, l)
	if l.flights.len() > 0 {
		next := l.flights.peek()
		at := next.at
		if at < l.sched.Now() {
			// Delay was lowered mid-run while older flights were still in
			// propagation; the FIFO pipeline then delivers the newer packet
			// as soon as the older one is out rather than rewinding time.
			at = l.sched.Now()
		}
		l.deliverTimer.ResetReserved(at, next.res)
	}
}

// ---------------------------------------------------------------------------
// Live re-parameterization (the dynamics layer's link events). All four
// mutators are safe mid-run: they preserve the pooled-packet ownership
// discipline — every reference the link holds is either carried forward or
// released exactly once — and never disturb the FIFO delivery pipeline's
// determinism guarantees.

// accrue folds the capacity available since the last accrual into capBits:
// Rate while up, nothing while down. Called before every parameter change
// and by CapacityBits.
func (l *Link) accrue() {
	now := l.sched.Now()
	if now > l.lastAccrue {
		if !l.down {
			l.capBits += float64(l.Rate) * (float64(now-l.lastAccrue) / float64(sim.Second))
		}
		l.lastAccrue = now
	}
}

// CapacityBits reports the integral of available link capacity in bits
// from time zero to now — the correct utilization denominator for links
// whose rate or up/down state changed mid-run (for a never-mutated link it
// equals Rate × elapsed seconds exactly).
func (l *Link) CapacityBits() float64 {
	l.accrue()
	return l.capBits
}

// SetRate changes the link rate for subsequent transmissions. A packet
// already serializing completes on the old timing (its tx timer is armed);
// re-arming it would entangle the change with serialization phase and buy
// nothing observable one packet later.
func (l *Link) SetRate(rate int64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: SetRate(%d) on %s must be positive", rate, l))
	}
	l.guardCut("SetRate")
	l.accrue()
	l.Rate = rate
	l.RateChanges++
}

// SetDelay changes the propagation delay for packets entering propagation
// from now on. Packets already in flight keep their delivery times; when
// the delay is lowered, the FIFO pipeline clamps newer deliveries behind
// older ones (see onDeliver) instead of reordering.
func (l *Link) SetDelay(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: SetDelay(%v) on %s is negative", d, l))
	}
	l.guardCut("SetDelay")
	l.Delay = d
	l.net.delayGen++
}

// InFlight reports how many packets are in propagation (serialization
// finished, delivery pending) — an audit observability hook. On a cut link
// the propagating packets sit in the hand-off rings instead of the flight
// FIFO: originals awaiting the barrier copy plus copies awaiting delivery.
func (l *Link) InFlight() int {
	if l.cut != nil {
		return l.cut.xfer.len() + l.cut.handoff.len()
	}
	return l.flights.len()
}

// Serializing reports whether a packet is currently being serialized.
func (l *Link) Serializing() bool { return l.cur != nil }

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// Down takes the link down: the in-progress serialization is abandoned,
// pending deliveries are cancelled, and every packet the link holds — the
// one serializing, the propagation FIFO, the queue — is released back to
// the pool and counted in DroppedDown. Packets sent while down are
// discarded on arrival. Idempotent.
func (l *Link) Down() {
	if l.down {
		return
	}
	l.guardCut("Down")
	l.accrue() // capacity counted up to the outage instant
	l.down = true
	l.txTimer.Stop()
	if l.cur != nil {
		l.cur.Release()
		l.cur = nil
		l.DroppedDown++
	}
	l.busy = false
	l.deliverTimer.Stop()
	for l.flights.len() > 0 {
		f := l.flights.pop()
		f.pkt.Release()
		l.DroppedDown++
	}
	for {
		pkt := l.Queue.pop()
		if pkt == nil {
			break
		}
		pkt.Release()
		l.DroppedDown++
	}
}

// Up brings the link back. The queue is empty at this point (Down drained
// it and Send discarded while down), so transmission resumes with the next
// arriving packet; the guard covers callers that pushed state in between.
// Idempotent.
func (l *Link) Up() {
	if !l.down {
		return
	}
	l.accrue() // the downtime contributes zero capacity
	l.down = false
	if !l.busy && l.Queue.Len() > 0 {
		l.startTransmission()
	}
}
