package mcast

import (
	"testing"

	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// testbed is a small multicast topology:
//
//	src --- core --- e1 --- h1, h2
//	           \---- e2 --- h3
type testbed struct {
	sched      *sim.Scheduler
	net        *netsim.Network
	fabric     *Fabric
	src        *netsim.Host
	core       *Router
	e1, e2     *Router
	h1, h2, h3 *netsim.Host
	g1, g2     *IGMP
}

const grp = packet.MulticastBase

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(7))
	fabric := NewFabric(net)
	tb := &testbed{sched: sched, net: net, fabric: fabric}

	tb.src = net.AddHost("src")
	tb.core = NewRouter(net, fabric, "core")
	tb.e1 = NewRouter(net, fabric, "e1")
	tb.e2 = NewRouter(net, fabric, "e2")
	tb.h1 = net.AddHost("h1")
	tb.h2 = net.AddHost("h2")
	tb.h3 = net.AddHost("h3")

	const r = 10_000_000
	const q = 1 << 20
	net.Connect(tb.src, tb.core, r, 10*sim.Millisecond, q)
	net.Connect(tb.core, tb.e1, r, 10*sim.Millisecond, q)
	net.Connect(tb.core, tb.e2, r, 10*sim.Millisecond, q)
	net.Connect(tb.e1, tb.h1, r, 5*sim.Millisecond, q)
	net.Connect(tb.e1, tb.h2, r, 5*sim.Millisecond, q)
	net.Connect(tb.e2, tb.h3, r, 5*sim.Millisecond, q)
	net.ComputeRoutes()

	tb.e1.AttachLocal(tb.h1)
	tb.e1.AttachLocal(tb.h2)
	tb.e2.AttachLocal(tb.h3)
	tb.g1 = NewIGMP(tb.e1)
	tb.g2 = NewIGMP(tb.e2)

	fabric.SetSource(grp, tb.src.ID())
	fabric.SetSource(grp+1, tb.src.ID())
	return tb
}

func (tb *testbed) sendGroup(g packet.Addr, n int) {
	for i := 0; i < n; i++ {
		pkt := packet.New(tb.src.Addr(), g, 576, &packet.FLIDHeader{Group: 1, Seq: uint16(i + 1)})
		pkt.UID = tb.net.NewUID()
		tb.src.Send(pkt)
	}
}

func counter(h *netsim.Host) *int {
	n := new(int)
	h.Handle(packet.ProtoFLID, func(pkt *packet.Packet) { *n++ })
	return n
}

func TestDeliveryOnlyToMembers(t *testing.T) {
	tb := newTestbed(t)
	c1 := counter(tb.h1)
	c2 := counter(tb.h2)
	c3 := counter(tb.h3)

	cl1 := NewClient(tb.h1, tb.e1.Addr())
	tb.sched.At(0, func() { cl1.Join(grp) })
	tb.sched.At(sim.Second, func() { tb.sendGroup(grp, 5) })
	tb.sched.Run()

	if *c1 != 5 {
		t.Fatalf("h1 got %d packets, want 5", *c1)
	}
	if *c2 != 0 || *c3 != 0 {
		t.Fatalf("non-members received packets: h2=%d h3=%d", *c2, *c3)
	}
}

func TestReplicationSingleCopyPerLink(t *testing.T) {
	tb := newTestbed(t)
	c1 := counter(tb.h1)
	c2 := counter(tb.h2)

	NewClient(tb.h1, tb.e1.Addr()).Join(grp)
	NewClient(tb.h2, tb.e1.Addr()).Join(grp)
	tb.sched.RunUntil(sim.Second)

	up, _ := tb.net.LinkBetween(tb.core.ID(), tb.e1.ID()), 0
	before := up.Delivered
	tb.sendGroup(grp, 10)
	tb.sched.Run()

	if *c1 != 10 || *c2 != 10 {
		t.Fatalf("deliveries h1=%d h2=%d, want 10 each", *c1, *c2)
	}
	// Both receivers sit behind e1: the core→e1 link must carry exactly one
	// copy of each packet.
	if got := up.Delivered - before; got != 10 {
		t.Fatalf("core->e1 carried %d copies, want 10", got)
	}
}

func TestGraftLatency(t *testing.T) {
	tb := newTestbed(t)
	// h3 joins: graft must travel h3->e2 (IGMP, 5ms) then e2->core (10ms)
	// and core is fed directly by src. The tree is then live, so a packet
	// sent well after that arrives; one sent immediately is lost.
	c3 := counter(tb.h3)
	NewClient(tb.h3, tb.e2.Addr()).Join(grp)

	tb.sched.At(1*sim.Millisecond, func() { tb.sendGroup(grp, 1) }) // too early: tree not built
	tb.sched.At(100*sim.Millisecond, func() { tb.sendGroup(grp, 1) })
	tb.sched.Run()
	if *c3 != 1 {
		t.Fatalf("h3 got %d packets, want exactly the late one", *c3)
	}
}

func TestSecondGraftFasterThanFirst(t *testing.T) {
	tb := newTestbed(t)
	// With h1 already on the tree, h2 joining on the same edge requires no
	// new grafting above e1 and activates after just the IGMP hop.
	NewClient(tb.h1, tb.e1.Addr()).Join(grp)
	tb.sched.RunUntil(sim.Second)
	if !tb.fabric.Joined(grp, tb.e1.ID()) {
		t.Fatal("e1 should be on the tree")
	}
	links := tb.fabric.ActiveLinks(grp)

	NewClient(tb.h2, tb.e1.Addr()).Join(grp)
	tb.sched.RunUntil(2 * sim.Second)
	if got := tb.fabric.ActiveLinks(grp); got != links {
		t.Fatalf("same-edge join changed active links %d -> %d", links, got)
	}
}

func TestLeavePrunesAndStopsDelivery(t *testing.T) {
	tb := newTestbed(t)
	c1 := counter(tb.h1)
	cl := NewClient(tb.h1, tb.e1.Addr())
	cl.Join(grp)
	tb.sched.RunUntil(sim.Second)
	tb.sendGroup(grp, 3)
	tb.sched.RunUntil(2 * sim.Second)
	cl.Leave(grp)
	tb.sched.RunUntil(3 * sim.Second)
	tb.sendGroup(grp, 3)
	tb.sched.Run()

	if *c1 != 3 {
		t.Fatalf("h1 got %d packets, want only the 3 pre-leave", *c1)
	}
	if tb.fabric.ActiveLinks(grp) != 0 {
		t.Fatal("tree should be fully pruned")
	}
}

func TestLeaveOfOneMemberKeepsOtherServed(t *testing.T) {
	tb := newTestbed(t)
	c1 := counter(tb.h1)
	c2 := counter(tb.h2)
	cl1 := NewClient(tb.h1, tb.e1.Addr())
	cl2 := NewClient(tb.h2, tb.e1.Addr())
	cl1.Join(grp)
	cl2.Join(grp)
	tb.sched.RunUntil(sim.Second)
	cl1.Leave(grp)
	tb.sched.RunUntil(2 * sim.Second)
	tb.sendGroup(grp, 4)
	tb.sched.Run()
	if *c1 != 0 {
		t.Fatalf("h1 left but got %d packets", *c1)
	}
	if *c2 != 4 {
		t.Fatalf("h2 got %d packets, want 4", *c2)
	}
}

func TestPruneBeforeGraftCompletes(t *testing.T) {
	tb := newTestbed(t)
	cl := NewClient(tb.h3, tb.e2.Addr())
	// Join and leave within the graft propagation window.
	tb.sched.At(0, func() { cl.Join(grp) })
	tb.sched.At(6*sim.Millisecond, func() { cl.Leave(grp) }) // after IGMP hop, before graft applies
	tb.sched.RunUntil(sim.Second)
	if tb.fabric.ActiveLinks(grp) != 0 {
		t.Fatal("cancelled graft left active links")
	}
	c3 := counter(tb.h3)
	tb.sendGroup(grp, 2)
	tb.sched.Run()
	if *c3 != 0 {
		t.Fatalf("h3 received %d packets after cancelled join", *c3)
	}
}

func TestIndependentGroups(t *testing.T) {
	tb := newTestbed(t)
	c1 := counter(tb.h1)
	NewClient(tb.h1, tb.e1.Addr()).Join(grp)
	tb.sched.RunUntil(sim.Second)
	tb.sendGroup(grp+1, 5) // different group: h1 is not a member
	tb.sched.Run()
	if *c1 != 0 {
		t.Fatalf("h1 received %d packets of a group it never joined", *c1)
	}
}

func TestAlertPacketsInterceptedNotDelivered(t *testing.T) {
	tb := newTestbed(t)
	intercepted := 0
	tb.e1.SetGatekeeper(&hookGate{
		IGMP:      NewIGMP(tb.e1),
		intercept: func(pkt *packet.Packet) { intercepted++ },
	})
	// Re-register membership through the hook gate.
	hg := tb.e1.Gatekeeper().(*hookGate)
	_ = hg

	cl := NewClient(tb.h1, tb.e1.Addr())
	cl.Join(grp)
	tb.sched.RunUntil(sim.Second)

	got := 0
	tb.h1.Handle(packet.ProtoKeyAnnounce, func(pkt *packet.Packet) { got++ })
	pkt := packet.New(tb.src.Addr(), grp, 100, &packet.KeyAnnounce{Session: 1, Slot: 1})
	pkt.Alert = true
	tb.src.Send(pkt)
	tb.sched.Run()

	if intercepted != 1 {
		t.Fatalf("intercepted %d, want 1", intercepted)
	}
	if got != 0 {
		t.Fatal("alert packet leaked onto a local interface")
	}
}

// hookGate wraps IGMP, overriding interception.
type hookGate struct {
	*IGMP
	intercept func(pkt *packet.Packet)
}

func (h *hookGate) Intercept(pkt *packet.Packet) { h.intercept(pkt) }

func TestAlertPacketsStillForwardDownTree(t *testing.T) {
	tb := newTestbed(t)
	// h3 behind e2 joins; alert packet from src must transit core and reach
	// e2's gatekeeper even though e1 has no members.
	intercepted := 0
	tb.e2.SetGatekeeper(&hookGate{
		IGMP:      NewIGMP(tb.e2),
		intercept: func(pkt *packet.Packet) { intercepted++ },
	})
	NewClient(tb.h3, tb.e2.Addr()).Join(grp)
	tb.sched.RunUntil(sim.Second)

	pkt := packet.New(tb.src.Addr(), grp, 100, &packet.KeyAnnounce{Session: 1, Slot: 2})
	pkt.Alert = true
	tb.src.Send(pkt)
	tb.sched.Run()
	if intercepted != 1 {
		t.Fatalf("e2 intercepted %d, want 1", intercepted)
	}
}

func TestIGMPIgnoresNonLocalJoin(t *testing.T) {
	tb := newTestbed(t)
	// h3 is not local to e1; a forged join addressed to e1 must be ignored.
	cl := NewClient(tb.h3, tb.e1.Addr())
	cl.Join(grp)
	tb.sched.Run()
	if tb.g1.Members(grp) != 0 {
		t.Fatal("non-local host joined through e1")
	}
}

func TestJoinIdempotent(t *testing.T) {
	tb := newTestbed(t)
	cl := NewClient(tb.h1, tb.e1.Addr())
	cl.Join(grp)
	cl.Join(grp)
	cl.Join(grp)
	tb.sched.RunUntil(sim.Second)
	if tb.g1.Members(grp) != 1 {
		t.Fatalf("members = %d, want 1", tb.g1.Members(grp))
	}
	if tb.fabric.Grafts != 1 {
		t.Fatalf("grafts = %d, want 1", tb.fabric.Grafts)
	}
}

func TestLeaveWithoutJoinHarmless(t *testing.T) {
	tb := newTestbed(t)
	NewClient(tb.h1, tb.e1.Addr()).Leave(grp)
	tb.sched.Run()
	if tb.fabric.Prunes != 0 {
		t.Fatal("phantom prune executed")
	}
}

func TestPruneDelayModelsLeaveLatency(t *testing.T) {
	tb := newTestbed(t)
	tb.fabric.PruneDelayPerPath = 200 * sim.Millisecond
	cl := NewClient(tb.h1, tb.e1.Addr())
	cl.Join(grp)
	tb.sched.RunUntil(sim.Second)
	active := tb.fabric.ActiveLinks(grp)
	if active == 0 {
		t.Fatal("tree should be active before leave")
	}
	cl.Leave(grp)
	// During the leave-latency window the branch still carries traffic
	// toward the edge (the bandwidth cost dynamic layering was designed to
	// avoid); after the window it is pruned.
	tb.sched.RunUntil(1100 * sim.Millisecond)
	if got := tb.fabric.ActiveLinks(grp); got != active {
		t.Fatalf("tree pruned during the latency window: %d links, want %d", got, active)
	}
	tb.sched.RunUntil(5 * sim.Second)
	if got := tb.fabric.ActiveLinks(grp); got != 0 {
		t.Fatalf("tree not pruned after the latency window: %d links", got)
	}
}

func TestSourceUnregisteredPanics(t *testing.T) {
	tb := newTestbed(t)
	defer func() {
		if recover() == nil {
			t.Fatal("graft without source should panic")
		}
	}()
	tb.fabric.Graft(packet.MulticastBase+99, tb.e1.ID())
}

func TestSetSourceRejectsUnicast(t *testing.T) {
	tb := newTestbed(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SetSource with unicast addr should panic")
		}
	}()
	tb.fabric.SetSource(packet.Addr(5), tb.src.ID())
}

func TestUnicastForwardingThroughRouters(t *testing.T) {
	tb := newTestbed(t)
	got := 0
	tb.h3.Handle(packet.ProtoCBR, func(pkt *packet.Packet) { got++ })
	pkt := packet.New(tb.h1.Addr(), tb.h3.Addr(), 576, &packet.CBRHeader{Flow: 1})
	tb.sched.At(0, func() { tb.h1.Send(pkt) })
	tb.sched.Run()
	if got != 1 {
		t.Fatal("unicast packet not forwarded host-to-host across routers")
	}
}

// An edge whose receiver oscillates, or whose grants a forger tears down,
// grafts and prunes the same branch every slot: after the first round the
// branch's state, route and propagation timer are reused, and a
// prune-before-graft-completes still cancels the graft in flight.
func TestRegraftReusesBranchState(t *testing.T) {
	tb := newTestbed(t)
	e1 := tb.e1.ID()
	cycle := func() {
		tb.fabric.Graft(grp, e1)
		tb.sched.RunUntil(tb.sched.Now() + 50*sim.Millisecond) // graft reaches the source and applies
		if tb.fabric.ActiveLinks(grp) != 2 {
			t.Fatalf("%d links carry the group after a graft, want src->core->e1", tb.fabric.ActiveLinks(grp))
		}
		tb.fabric.Prune(grp, e1)
		if tb.fabric.ActiveLinks(grp) != 0 {
			t.Fatal("prune left the branch active")
		}
		tb.fabric.Graft(grp, e1)
		tb.fabric.Prune(grp, e1) // pruned while the graft is in flight
		tb.sched.RunUntil(tb.sched.Now() + 50*sim.Millisecond)
		if tb.fabric.ActiveLinks(grp) != 0 {
			t.Fatal("a graft pruned in flight applied anyway")
		}
	}
	// Each round lands its events in calendar buckets further along; let the
	// scheduler's queue meet all of them before counting what a round costs.
	for i := 0; i < 500; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("a graft/prune round on a known branch allocated %.0f times", got)
	}
}
