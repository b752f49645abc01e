package deltasigma

import (
	"fmt"

	"deltasigma/internal/cbr"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
	"deltasigma/internal/tcp"
)

// TCPFlow is one TCP Reno connection crossing the experiment's
// bottleneck(s) from a source at the ingress to a sink at the default
// egress.
type TCPFlow struct {
	label   string
	snd     *tcp.Sender
	recv    *tcp.Receiver
	meter   *Meter
	startAt Time
}

// Meter returns the flow's delivered-bytes meter.
func (f *TCPFlow) Meter() *Meter { return f.meter }

// Label names the flow in results.
func (f *TCPFlow) Label() string { return f.label }

// Cwnd reports the sender's current congestion window in packets.
func (f *TCPFlow) Cwnd() float64 { return f.snd.Cwnd() }

// Stop halts the flow permanently: no further segments or retransmissions
// are sent, and in-flight traffic drains normally. Safe mid-run —
// StopTraffic calls this on every flow.
func (f *TCPFlow) Stop() { f.snd.Stop() }

func (f *TCPFlow) schedule(sched *sim.Scheduler) {
	sched.At(f.startAt, f.snd.Start)
}

// AddTCP attaches a TCP Reno competitor whose sender starts at the given
// virtual time. Call before Run.
func (e *Experiment) AddTCP(startAt Time) *TCPFlow {
	e.mustNotHaveStarted("AddTCP")
	flow := uint32(len(e.tcps) + 1)
	src := e.Topo.AttachSource(fmt.Sprintf("tsrc%d", flow))
	port := e.Topo.AttachReceiver(fmt.Sprintf("tdst%d", flow), DefaultDelay)
	recv := tcp.NewReceiver(port.Host, flow)
	meter := new(stats.Meter)
	sched := e.Topo.Scheduler()
	recv.OnDeliver = func(bytes int) { meter.Add(sched.Now(), bytes) }
	f := &TCPFlow{
		label:   fmt.Sprintf("tcp%d", flow),
		snd:     tcp.NewSender(src, port.Host.Addr(), flow),
		recv:    recv,
		meter:   meter,
		startAt: startAt,
	}
	e.tcps = append(e.tcps, f)
	return f
}

// CBR is one constant-bit-rate cross-traffic source from the ingress to
// the default egress, optionally duty-cycled or burst-windowed.
type CBR struct {
	label string
	src   *cbr.Source
	meter *Meter

	burst    bool
	from, to Time
}

// Start begins emission. Safe mid-run, from a closure scheduled on
// Topo.Scheduler(); Burst puts an on-window on the experiment timeline.
func (c *CBR) Start() { c.src.Start() }

// Stop halts emission. Safe mid-run.
func (c *CBR) Stop() { c.src.Stop() }

// Meter returns the delivered-bytes meter at the CBR sink.
func (c *CBR) Meter() *Meter { return c.meter }

// Label names the source in results.
func (c *CBR) Label() string { return c.label }

// PacketsSent reports emissions so far.
func (c *CBR) PacketsSent() uint64 { return c.src.PacketsSent }

// Burst restricts the source to a single on-window: it starts at from and
// stops permanently at to (the Figure 8e burst). Overrides the default
// start at time zero; call before Run. The window rides the experiment
// timeline — the same mechanism every other mid-run event uses.
func (c *CBR) Burst(from, to Time) {
	c.burst = true
	c.from, c.to = from, to
}

// schedule installs the source's lifecycle at Start: an always-on source
// starts with the experiment, a burst window goes onto the timeline.
func (c *CBR) schedule(e *Experiment) {
	if c.burst {
		e.timeline.Add(c.from, c.src.Start)
		e.timeline.Add(c.to, c.src.Stop)
		return
	}
	e.Topo.Scheduler().At(0, c.src.Start)
}

// AddCBR attaches a CBR source transmitting at rate bits/s with the given
// on/off duty cycle (both zero means always on). The paper's §5.1
// inelastic cross traffic is AddCBR(capacity/10, 5*Second, 5*Second).
// Call before Run.
func (e *Experiment) AddCBR(rate int64, on, off Time) *CBR {
	e.mustNotHaveStarted("AddCBR")
	idx := len(e.cbrs) + 1
	src := e.Topo.AttachSource(fmt.Sprintf("csrc%d", idx))
	port := e.Topo.AttachReceiver(fmt.Sprintf("cdst%d", idx), DefaultDelay)
	s := cbr.New(src, port.Host.Addr(), uint32(900+idx), rate, e.pktSize)
	s.OnPeriod, s.OffPeriod = on, off
	meter := new(stats.Meter)
	sched := e.Topo.Scheduler()
	port.Host.HandleAll(func(pkt *packet.Packet) { meter.Add(sched.Now(), pkt.Size) })
	c := &CBR{label: fmt.Sprintf("cbr%d", idx), src: s, meter: meter}
	e.cbrs = append(e.cbrs, c)
	return c
}
