package tcp

import (
	"testing"

	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// fwd is a minimal unicast forwarder.
type fwd struct {
	id   netsim.NodeID
	name string
	net  *netsim.Network
}

func (f *fwd) ID() netsim.NodeID { return f.id }
func (f *fwd) Name() string      { return f.name }
func (f *fwd) Receive(pkt *packet.Packet, from *netsim.Link) {
	if l := f.net.NextHopLink(f.id, pkt.Dst); l != nil {
		l.Send(pkt)
	}
}

// dumbbell builds src hosts and dst hosts joined through two routers with a
// single bottleneck in the middle.
func dumbbell(n int, bottleneckBps int64, qBytes int) (*sim.Scheduler, []*netsim.Host, []*netsim.Host) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(3))
	r1 := &fwd{name: "r1", net: net}
	net.Add(func(id netsim.NodeID) netsim.Node { r1.id = id; return r1 })
	r2 := &fwd{name: "r2", net: net}
	net.Add(func(id netsim.NodeID) netsim.Node { r2.id = id; return r2 })
	net.Connect(r1, r2, bottleneckBps, 20*sim.Millisecond, qBytes)

	var srcs, dsts []*netsim.Host
	for i := 0; i < n; i++ {
		s := net.AddHost("s")
		d := net.AddHost("d")
		net.Connect(s, r1, 10_000_000, 10*sim.Millisecond, 1<<20)
		net.Connect(r2, d, 10_000_000, 10*sim.Millisecond, 1<<20)
		srcs = append(srcs, s)
		dsts = append(dsts, d)
	}
	net.ComputeRoutes()
	return sched, srcs, dsts
}

func TestSingleFlowFillsBottleneck(t *testing.T) {
	sched, srcs, dsts := dumbbell(1, 1_000_000, 20_000)
	recv := NewReceiver(dsts[0], 1)
	send := NewSender(srcs[0], dsts[0].Addr(), 1)
	sched.At(0, func() { send.Start() })
	sched.RunUntil(30 * sim.Second)

	gotBps := float64(recv.GoodputBytes) * 8 / 30
	if gotBps < 0.80*1_000_000 {
		t.Fatalf("goodput %.0f bps, want >= 80%% of the 1 Mbps bottleneck", gotBps)
	}
	if gotBps > 1_000_000 {
		t.Fatalf("goodput %.0f bps exceeds link capacity", gotBps)
	}
}

func TestSlowStartDoublesWindow(t *testing.T) {
	sched, srcs, dsts := dumbbell(1, 10_000_000, 1<<20)
	NewReceiver(dsts[0], 1)
	send := NewSender(srcs[0], dsts[0].Addr(), 1)
	sched.At(0, func() { send.Start() })
	// RTT is 80 ms; after the first ack (~80 ms) cwnd=2, then 4, 8...
	sched.RunUntil(90 * sim.Millisecond)
	if send.Cwnd() < 2 {
		t.Fatalf("cwnd = %.1f after one RTT, want >= 2", send.Cwnd())
	}
	sched.RunUntil(180 * sim.Millisecond)
	if send.Cwnd() < 4 {
		t.Fatalf("cwnd = %.1f after two RTTs, want >= 4", send.Cwnd())
	}
}

func TestLossTriggersFastRecovery(t *testing.T) {
	// Small bottleneck queue forces drops once the window outgrows the
	// pipe; Reno must recover via fast retransmit, not stall.
	sched, srcs, dsts := dumbbell(1, 500_000, 5_000)
	recv := NewReceiver(dsts[0], 1)
	send := NewSender(srcs[0], dsts[0].Addr(), 1)
	sched.At(0, func() { send.Start() })
	sched.RunUntil(30 * sim.Second)

	if send.FastRecoveries == 0 {
		t.Fatal("no fast recovery despite forced drops")
	}
	gotBps := float64(recv.GoodputBytes) * 8 / 30
	if gotBps < 0.6*500_000 {
		t.Fatalf("goodput %.0f bps after losses, want >= 60%% of bottleneck", gotBps)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	sched, srcs, dsts := dumbbell(2, 1_000_000, 20_000)
	r1 := NewReceiver(dsts[0], 1)
	r2 := NewReceiver(dsts[1], 2)
	s1 := NewSender(srcs[0], dsts[0].Addr(), 1)
	s2 := NewSender(srcs[1], dsts[1].Addr(), 2)
	sched.At(0, func() { s1.Start() })
	sched.At(100*sim.Millisecond, func() { s2.Start() })
	sched.RunUntil(60 * sim.Second)

	g1 := float64(r1.GoodputBytes)
	g2 := float64(r2.GoodputBytes)
	total := (g1 + g2) * 8 / 60
	if total < 0.8*1_000_000 {
		t.Fatalf("aggregate %.0f bps, want >= 80%% of bottleneck", total)
	}
	ratio := g1 / g2
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("unfair share: %.0f vs %.0f bytes (ratio %.2f)", g1, g2, ratio)
	}
}

func TestRetransmissionTimeoutRecovers(t *testing.T) {
	// A queue so small that bursts lose several segments including
	// retransmissions → RTO path must eventually fire and recover.
	sched, srcs, dsts := dumbbell(1, 200_000, 1_200)
	recv := NewReceiver(dsts[0], 1)
	send := NewSender(srcs[0], dsts[0].Addr(), 1)
	sched.At(0, func() { send.Start() })
	sched.RunUntil(60 * sim.Second)

	if recv.GoodputBytes == 0 {
		t.Fatal("connection starved")
	}
	gotBps := float64(recv.GoodputBytes) * 8 / 60
	if gotBps < 0.4*200_000 {
		t.Fatalf("goodput %.0f bps, want >= 40%% of a lossy bottleneck", gotBps)
	}
}

func TestReceiverReordersOutOfOrderSegments(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(4))
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, b, 10_000_000, sim.Millisecond, 1<<20)
	net.ComputeRoutes()

	recv := NewReceiver(b, 9)
	// Hand-deliver segments 1,2,0: goodput must only advance at 0 and then
	// absorb the buffered ones.
	mk := func(seq uint32) *packet.Packet {
		return packet.New(a.Addr(), b.Addr(), segmentSize,
			&packet.TCPHeader{Flow: 9, Seq: seq, Len: segmentSize})
	}
	sched.At(0, func() { a.Send(mk(1)); a.Send(mk(2)) })
	sched.At(10*sim.Millisecond, func() {
		if recv.GoodputBytes != 0 {
			t.Error("goodput advanced before the hole filled")
		}
		a.Send(mk(0))
	})
	sched.Run()
	want := uint64(3 * segmentSize)
	if recv.GoodputBytes != want {
		t.Fatalf("goodput %d, want %d", recv.GoodputBytes, want)
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	sched, srcs, dsts := dumbbell(1, 10_000_000, 1<<20)
	NewReceiver(dsts[0], 1)
	send := NewSender(srcs[0], dsts[0].Addr(), 1)
	sched.At(0, func() { send.Start() })
	sched.RunUntil(5 * sim.Second)
	// Path RTT is 80 ms plus small serialization; SRTT must be close.
	if send.srtt < 75*sim.Millisecond || send.srtt > 120*sim.Millisecond {
		t.Fatalf("srtt = %v, want ~80ms", send.srtt)
	}
	if send.rto < minRTO {
		t.Fatalf("rto %v below floor", send.rto)
	}
}

func TestSenderIgnoresForeignFlows(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(5))
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, b, 10_000_000, sim.Millisecond, 1<<20)
	net.ComputeRoutes()
	send := NewSender(a, b.Addr(), 1)
	sched.At(0, func() { send.Start() })
	// Inject a bogus ACK for another flow; it must not advance the window.
	sched.At(5*sim.Millisecond, func() {
		b.Send(packet.New(b.Addr(), a.Addr(), ackSize,
			&packet.TCPHeader{Flow: 99, Ack: 1000, IsAck: true}))
	})
	sched.RunUntil(20 * sim.Millisecond)
	if send.sndUna != 0 {
		t.Fatal("foreign-flow ack advanced sndUna")
	}
}
