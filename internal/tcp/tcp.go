// Package tcp implements TCP Reno over the simulator: slow start,
// congestion avoidance, 3-dupack fast retransmit, fast recovery, and an
// RFC 6298-style retransmission timer. It plays the role NS-2's
// Agent/TCP/Reno + Agent/TCPSink pair plays in the paper's experiments:
// well-behaved elastic cross traffic competing with the multicast sessions.
//
// Sequence and acknowledgment numbers are segment-granular (as in NS-2's
// packet-based TCP): Seq is the segment index, Ack the next expected
// segment. The sender is a greedy (FTP-like) source with unbounded data.
//
// Every connection runs the same fixed parameters: 576-byte segments
// (§5.1), 40-byte acks, a 128-segment receiver window, and a
// retransmission timeout that starts at 1 s and never drops below 200 ms.
package tcp

import (
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// The connection's fixed parameters.
const (
	// segmentSize is the wire size of a data segment in bytes (§5.1 uses
	// 576-byte packets for all data traffic).
	segmentSize = 576
	// ackSize is the wire size of a pure acknowledgment.
	ackSize = 40
	// maxWindow caps the congestion window in segments (receiver window).
	maxWindow = 128
	// initialRTO is the retransmission timeout before any RTT sample.
	initialRTO = sim.Second
	// minRTO floors the retransmission timeout.
	minRTO = 200 * sim.Millisecond
)

// Sender is one Reno connection endpoint.
type Sender struct {
	host *netsim.Host
	dst  packet.Addr
	flow uint32

	sndNxt         uint32 // next segment to (re)transmit; rewound to sndUna on RTO
	sndUna         uint32 // oldest unacknowledged segment
	maxSent        uint32 // highest segment ever transmitted + 1
	cwnd           float64
	ssthresh       float64
	dupAcks        int
	inFastRecovery bool

	// RTT estimation (RFC 6298).
	srtt, rttvar sim.Time
	rto          sim.Time
	timedSeq     uint32
	timedAt      sim.Time
	timing       bool
	backoff      int

	rtoTimer *sim.Timer
	started  bool
	stopped  bool

	// Stats.
	SegmentsSent    uint64
	Retransmissions uint64
	Timeouts        uint64
	FastRecoveries  uint64
}

// NewSender creates a Reno sender on host targeting the receiver at dst.
// Each (flow, host-pair) is an independent connection.
func NewSender(host *netsim.Host, dst packet.Addr, flow uint32) *Sender {
	s := &Sender{
		host: host, dst: dst, flow: flow,
		cwnd: 1, ssthresh: maxWindow / 2, rto: initialRTO,
	}
	s.rtoTimer = host.Scheduler().NewTimer(s.onTimeout)
	host.Handle(packet.ProtoTCP, s.onAck)
	return s
}

// Start begins transmitting at the scheduler's current time.
func (s *Sender) Start() {
	if s.started || s.stopped {
		return
	}
	s.started = true
	s.trySend()
}

// Stop halts the connection: no further segments are transmitted (acks for
// segments already in flight still update state) and the retransmission
// timer is cancelled, so a stopped sender lets the network drain instead of
// retransmitting forever. Permanent — a stopped connection cannot restart.
func (s *Sender) Stop() {
	s.stopped = true
	s.rtoTimer.Stop()
}

// Cwnd reports the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// flight is the number of outstanding segments the sender currently
// accounts against its window. After a timeout the send pointer rewinds to
// the hole (go-back-N), so flight restarts from zero.
func (s *Sender) flight() uint32 { return s.sndNxt - s.sndUna }

func (s *Sender) window() float64 {
	if s.cwnd > maxWindow {
		return maxWindow
	}
	return s.cwnd
}

func (s *Sender) sched() *sim.Scheduler { return s.host.Scheduler() }

// trySend transmits segments from the send pointer while the window allows;
// after a rewind these are retransmissions of the lost middle of the window.
func (s *Sender) trySend() {
	if s.stopped {
		return
	}
	for float64(s.flight()) < s.window() {
		s.transmit(s.sndNxt)
		s.sndNxt++
	}
}

func (s *Sender) transmit(seq uint32) {
	if s.stopped {
		return
	}
	hdr := s.host.Network().Pool().TCPHeader()
	hdr.Flow, hdr.Seq, hdr.Len = s.flow, seq, segmentSize
	pkt := s.host.Network().NewPacket(s.host.Addr(), s.dst, segmentSize, hdr)
	s.host.Send(pkt)
	s.SegmentsSent++
	if seq < s.maxSent {
		s.Retransmissions++
		// Karn's algorithm: never time retransmitted segments.
		if s.timing && s.timedSeq == seq {
			s.timing = false
		}
	} else {
		s.maxSent = seq + 1
		if !s.timing {
			s.timing = true
			s.timedSeq = seq
			s.timedAt = s.sched().Now()
		}
	}
	if !s.rtoTimer.Active() {
		s.armRTO()
	}
}

// armRTO (re)schedules the retransmission timeout in place: one timer and
// one recycled event serve the connection's whole lifetime.
func (s *Sender) armRTO() {
	if s.stopped {
		return
	}
	d := s.rto << uint(s.backoff)
	if max := 60 * sim.Second; d > max {
		d = max
	}
	s.rtoTimer.Reset(d)
}

func (s *Sender) onTimeout() {
	if s.flight() == 0 || s.stopped {
		return
	}
	s.Timeouts++
	// Multiplicative decrease, then go-back-N: rewind the send pointer to
	// the hole and slow-start from there.
	fl := float64(s.flight())
	s.ssthresh = maxf(fl/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inFastRecovery = false
	s.backoff++
	s.timing = false
	s.sndNxt = s.sndUna
	s.trySend()
	s.armRTO()
}

func (s *Sender) onAck(pkt *packet.Packet) {
	hdr, ok := pkt.Header.(*packet.TCPHeader)
	if !ok || !hdr.IsAck || hdr.Flow != s.flow {
		return
	}
	ack := hdr.Ack
	switch {
	case ack > s.sndUna:
		s.newAck(ack)
	case ack == s.sndUna && s.flight() > 0:
		s.dupAck()
	}
	s.trySend()
}

func (s *Sender) newAck(ack uint32) {
	acked := float64(ack - s.sndUna)
	s.sndUna = ack
	if s.sndNxt < ack {
		// The receiver's buffer covered rewound segments; skip past them.
		s.sndNxt = ack
	}
	s.backoff = 0

	// RTT sample (only for never-retransmitted, timed segments).
	if s.timing && ack > s.timedSeq {
		s.sample(s.sched().Now() - s.timedAt)
		s.timing = false
	}

	if s.inFastRecovery {
		// Reno deflates on the first new ACK covering the retransmission.
		s.inFastRecovery = false
		s.cwnd = s.ssthresh
		s.dupAcks = 0
	} else {
		s.dupAcks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += acked // slow start
		} else {
			s.cwnd += acked / s.cwnd // congestion avoidance
		}
		if s.cwnd > maxWindow {
			s.cwnd = maxWindow
		}
	}

	if s.flight() == 0 {
		s.rtoTimer.Stop()
	} else {
		s.armRTO()
	}
}

func (s *Sender) dupAck() {
	s.dupAcks++
	switch {
	case s.inFastRecovery:
		s.cwnd++ // window inflation per extra dupack
	case s.dupAcks == 3:
		s.FastRecoveries++
		s.ssthresh = maxf(float64(s.flight())/2, 2)
		s.transmit(s.sndUna) // fast retransmit
		s.cwnd = s.ssthresh + 3
		s.inFastRecovery = true
		s.armRTO()
	}
}

// sample folds an RTT measurement into SRTT/RTTVAR (RFC 6298 §2).
func (s *Sender) sample(rtt sim.Time) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Receiver is the TCP sink: it acknowledges every segment cumulatively and
// counts goodput.
type Receiver struct {
	host *netsim.Host
	flow uint32

	nextExpected uint32
	outOfOrder   map[uint32]bool

	// GoodputBytes counts in-order payload bytes delivered.
	GoodputBytes uint64
	// OnDeliver, when set, observes every in-order segment delivery.
	OnDeliver func(bytes int)
}

// NewReceiver creates a sink on host for the given flow.
func NewReceiver(host *netsim.Host, flow uint32) *Receiver {
	r := &Receiver{host: host, flow: flow, outOfOrder: make(map[uint32]bool)}
	host.Handle(packet.ProtoTCP, r.onData)
	return r
}

func (r *Receiver) onData(pkt *packet.Packet) {
	hdr, ok := pkt.Header.(*packet.TCPHeader)
	if !ok || hdr.IsAck || hdr.Flow != r.flow {
		return
	}
	if hdr.Seq == r.nextExpected {
		r.advance(int(hdr.Len))
		for r.outOfOrder[r.nextExpected] {
			delete(r.outOfOrder, r.nextExpected)
			r.advance(segmentSize)
		}
	} else if hdr.Seq > r.nextExpected {
		r.outOfOrder[hdr.Seq] = true
	}
	ack := r.host.Network().Pool().TCPHeader()
	ack.Flow, ack.Ack, ack.IsAck = r.flow, r.nextExpected, true
	r.host.Send(r.host.Network().NewPacket(r.host.Addr(), pkt.Src, ackSize, ack))
}

func (r *Receiver) advance(bytes int) {
	r.nextExpected++
	r.GoodputBytes += uint64(bytes)
	if r.OnDeliver != nil {
		r.OnDeliver(bytes)
	}
}
