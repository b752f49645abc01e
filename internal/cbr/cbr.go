// Package cbr provides constant-bit-rate traffic sources, including the
// on-off variant the paper uses as inelastic cross traffic (§5.1: a CBR
// session that alternates 5-second on and off periods at 10% of the
// bottleneck capacity, and the 800 Kbps burst of the responsiveness
// experiment).
package cbr

import (
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Source emits fixed-size packets at a constant bit rate, optionally gated
// by an on-off cycle.
type Source struct {
	host *netsim.Host
	dst  packet.Addr
	flow uint32

	// Rate is the transmission rate in bits/s while on.
	Rate int64
	// PacketSize is the wire size of each packet in bytes.
	PacketSize int
	// OnPeriod and OffPeriod define the duty cycle; both zero means
	// always-on.
	OnPeriod, OffPeriod sim.Time

	on      bool
	running bool
	seq     uint32

	emitTimer   *sim.Timer // reusable inter-packet timer
	toggleTimer *sim.Timer // reusable on-off cycle timer

	// PacketsSent counts emissions.
	PacketsSent uint64
}

// New creates a CBR source on host targeting dst.
func New(host *netsim.Host, dst packet.Addr, flow uint32, rate int64, pktSize int) *Source {
	s := &Source{host: host, dst: dst, flow: flow, Rate: rate, PacketSize: pktSize}
	s.emitTimer = host.Scheduler().NewTimer(s.emit)
	s.toggleTimer = host.Scheduler().NewTimer(s.toggle)
	return s
}

// interval is the inter-packet gap at Rate.
func (s *Source) interval() sim.Time {
	return sim.Time(int64(s.PacketSize) * 8 * int64(sim.Second) / s.Rate)
}

// Start begins emission (and the on-off cycle, if configured) now.
func (s *Source) Start() {
	if s.running {
		return
	}
	s.running = true
	s.on = true
	if s.OnPeriod > 0 {
		s.scheduleToggle()
	}
	s.emit()
}

// Stop halts the source permanently.
func (s *Source) Stop() { s.running = false }

func (s *Source) scheduleToggle() {
	period := s.OnPeriod
	if !s.on {
		period = s.OffPeriod
	}
	s.toggleTimer.Reset(period)
}

func (s *Source) toggle() {
	if !s.running {
		return
	}
	s.on = !s.on
	s.scheduleToggle()
	if s.on {
		s.emit()
	}
}

func (s *Source) emit() {
	if !s.running || !s.on {
		return
	}
	s.seq++
	net := s.host.Network()
	hdr := net.Pool().CBRHeader() // from the pool the packet comes from
	hdr.Flow, hdr.Seq = s.flow, s.seq
	s.host.Send(net.NewPacket(s.host.Addr(), s.dst, s.PacketSize, hdr))
	s.PacketsSent++
	s.emitTimer.Reset(s.interval())
}
