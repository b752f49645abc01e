package mcast

import (
	"testing"

	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// doomBed is the smallest network a doomed packet can arise on:
//
//	src --access-- first --hop-- edge --- rcv
//
// src sources grp; edge is rcv's IGMP edge; first has no local interface.
type doomBed struct {
	sched       *sim.Scheduler
	net         *netsim.Network
	fabric      *Fabric
	src, rcv    *netsim.Host
	first, edge *Router
	access      *netsim.Link
}

// newDoomBed builds the bed on 10 Mbps links: the access link and the
// edge's local link at 10 ms, the hop at hop.
func newDoomBed(hop sim.Time) *doomBed {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	b := &doomBed{sched: sched, net: net, fabric: NewFabric(net)}
	b.src = net.AddHost("src")
	b.first = NewRouter(net, b.fabric, "first")
	b.edge = NewRouter(net, b.fabric, "edge")
	b.rcv = net.AddHost("rcv")
	const rate, q = 10_000_000, 1 << 20
	b.access, _ = net.Connect(b.src, b.first, rate, 10*sim.Millisecond, q)
	net.Connect(b.first, b.edge, rate, hop, q)
	net.Connect(b.edge, b.rcv, rate, 10*sim.Millisecond, q)
	net.ComputeRoutes()
	b.edge.AttachLocal(b.rcv)
	NewIGMP(b.edge)
	NewIGMP(b.first)
	b.fabric.SetSource(grp, b.src.ID())
	return b
}

// TestDoomedPredicate walks the conditions under which a source's packet
// may go out as a doomed stand-in. Only a dormant group sourced behind a
// first hop with no local interface, over an access link whose arrival is
// exact, arriving strictly before a graft requested now could land,
// qualifies; every other row must send the real packet. A 10 Mbps link
// serializes a byte in 800 ns, so a 576-byte packet takes 460.8 µs: over
// a 460.8 µs hop it arrives exactly when a graft requested at send time
// would reach the first hop (10 ms access + 460.8 µs hop, back).
func TestDoomedPredicate(t *testing.T) {
	const size = 576
	exact := sim.Time(size * 800)
	rows := []struct {
		name   string
		hop    sim.Time
		size   int
		setup  func(b *doomBed)
		doomed bool
	}{
		{name: "dormant group", doomed: true},
		{name: "graft in flight", setup: func(b *doomBed) { b.fabric.Graft(grp, b.edge.ID()) }},
		{name: "branch carried", setup: func(b *doomBed) {
			b.fabric.Graft(grp, b.edge.ID())
			b.sched.RunUntil(sim.Second)
		}},
		{name: "graft pruned in flight", doomed: true, setup: func(b *doomBed) {
			b.fabric.Graft(grp, b.edge.ID())
			b.fabric.Prune(grp, b.edge.ID())
		}},
		{name: "branch pruned", doomed: true, setup: func(b *doomBed) {
			b.fabric.Graft(grp, b.edge.ID())
			b.sched.RunUntil(sim.Second)
			b.fabric.Prune(grp, b.edge.ID())
		}},
		{name: "local interface at the first hop", setup: func(b *doomBed) {
			h := b.net.AddHost("local")
			b.net.Connect(b.first, h, 10_000_000, 10*sim.Millisecond, 1<<20)
			b.first.AttachLocal(h)
		}},
		{name: "arrival exactly at the graft bound", hop: exact, size: size},
		{name: "arrival just before the graft bound", hop: exact, size: size - 1, doomed: true},
		{name: "arrival behind a queue reaching the bound", hop: 2 * exact, setup: func(b *doomBed) {
			b.src.Send(b.net.NewPacket(b.src.Addr(), grp+1, size, nil))
		}},
		{name: "delivery hook on the access link", setup: func(b *doomBed) {
			b.access.OnDeliver = func(*packet.Packet) {}
		}},
		{name: "bottleneck access link", setup: func(b *doomBed) { b.access.MarkBottleneck() }},
		{name: "sharded run", setup: func(b *doomBed) { b.net.EnableSharding(sim.NewShardGroupFrom(b.sched, 2)) }},
		{name: "group sourced elsewhere", setup: func(b *doomBed) { b.fabric.SetSource(grp, b.rcv.ID()) }},
		{name: "fast path off", setup: func(b *doomBed) { b.net.SimulateDoomed() }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			hop, sz := row.hop, row.size
			if hop == 0 {
				hop = 20 * sim.Millisecond
			}
			if sz == 0 {
				sz = size
			}
			b := newDoomBed(hop)
			if row.setup != nil {
				row.setup(b)
			}
			doomedBefore := b.access.Doomed
			if got := b.src.SendIfDoomed(grp, sz); got != row.doomed {
				t.Fatalf("SendIfDoomed = %v, want %v", got, row.doomed)
			}
			b.sched.RunUntil(b.sched.Now() + sim.Second)
			want := doomedBefore
			if row.doomed {
				want++
			}
			if b.access.Doomed != want {
				t.Errorf("access link retired %d stand-ins, want %d", b.access.Doomed-doomedBefore, want-doomedBefore)
			}
			if l := b.access; l.Arrived != l.Delivered+l.Queue.Dropped+l.DroppedDown {
				t.Errorf("access link holds packets after a second: arrived %d, delivered %d", l.Arrived, l.Delivered)
			}
		})
	}
}
