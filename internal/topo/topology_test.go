package topo

import (
	"testing"

	"deltasigma/internal/sim"
)

// TestDumbbellAttachesAndRoutes checks the dumbbell's attachment ports, an
// idempotent Finish, its one edge and one bottleneck, and the four-node
// path from source to receiver.
func TestDumbbellAttachesAndRoutes(t *testing.T) {
	topo := Dumbbell(PaperConfig(1_000_000, 1))
	src := topo.AttachSource("s")
	port := topo.AttachReceiver("r", 0)
	topo.Finish()
	topo.Finish() // idempotent

	if port.Edge == nil || port.Host == nil {
		t.Fatal("port incomplete")
	}
	if edges := topo.Edges(); len(edges) != 1 || edges[0] != port.Edge {
		t.Fatalf("edges %v", edges)
	}
	if bn := topo.Bottlenecks(); len(bn) != 1 {
		t.Fatalf("want 1 bottleneck, got %d", len(bn))
	}
	if path := topo.Network().Path(src.ID(), port.Host.ID()); len(path) != 4 {
		t.Fatalf("path length %d, want src-left-right-dst", len(path))
	}
}

func TestChainShape(t *testing.T) {
	c := Chain(Config{Capacities: []int64{1_000_000, 500_000, 250_000}, Seed: 1})
	if len(c.Forward) != 3 || len(c.Routers) != 4 {
		t.Fatalf("hops=%d routers=%d", len(c.Forward), len(c.Routers))
	}
	src := c.AttachSource("s")
	far := c.AttachReceiver("far", 0) // default egress: behind all hops
	near := c.AttachReceiverAt(1, "near", 0)
	c.Finish()

	// Far path crosses every router: src, R0..R3, dst = 6 nodes.
	if path := c.Network().Path(src.ID(), far.Host.ID()); len(path) != 6 {
		t.Fatalf("far path length %d, want 6", len(path))
	}
	if path := c.Network().Path(src.ID(), near.Host.ID()); len(path) != 4 {
		t.Fatalf("near path length %d, want 4", len(path))
	}
	if far.Edge != c.Routers[3] || near.Edge != c.Routers[1] {
		t.Fatal("receivers gatekept by wrong routers")
	}
	if edges := c.Edges(); len(edges) != 2 {
		t.Fatalf("want 2 edges with receivers, got %d", len(edges))
	}
	if len(c.Bottlenecks()) != 3 {
		t.Fatalf("want 3 bottlenecks, got %d", len(c.Bottlenecks()))
	}
	// Each hop's queue follows the two-BDP rule on the end-to-end RTT.
	rtt := c.RTT()
	if rtt != 2*(10+3*20+10)*sim.Millisecond {
		t.Fatalf("RTT %v", rtt)
	}
	wantQ := int(2 * 1_000_000 * rtt.Sec() / 8)
	if got := c.Forward[0].Queue.CapBytes; got != wantQ {
		t.Fatalf("hop-0 queue %d, want %d", got, wantQ)
	}
}

func TestChainReceiverLocalToItsEdge(t *testing.T) {
	c := Chain(Config{Capacities: []int64{1_000_000, 500_000}, Seed: 1})
	p := c.AttachReceiverAt(1, "r", 0)
	c.Finish()
	if _, ok := c.Routers[1].Locals()[p.Host.Addr()]; !ok {
		t.Fatal("receiver not a local interface of its chain edge")
	}
	if _, ok := c.Routers[2].Locals()[p.Host.Addr()]; ok {
		t.Fatal("receiver leaked onto the far edge")
	}
}

func TestChainBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty chain should panic")
		}
	}()
	Chain(Config{})
}

func TestStarShape(t *testing.T) {
	s := Star(Config{Capacities: []int64{600_000, 150_000}, Seed: 1})
	if len(s.Forward) != 2 || len(s.Routers) != 3 {
		t.Fatalf("spokes=%d routers=%d", len(s.Forward), len(s.Routers))
	}
	src := s.AttachSource("s")
	// Round-robin placement alternates spokes.
	r0 := s.AttachReceiver("a", 0)
	r1 := s.AttachReceiver("b", 0)
	r2 := s.AttachReceiver("c", 0)
	s.Finish()

	if r0.Edge != s.Routers[1] || r1.Edge != s.Routers[2] || r2.Edge != s.Routers[1] {
		t.Fatal("round-robin placement wrong")
	}
	// src → hub → edge → dst.
	if path := s.Network().Path(src.ID(), r1.Host.ID()); len(path) != 4 {
		t.Fatalf("path length %d, want 4", len(path))
	}
	if edges := s.Edges(); len(edges) != 2 {
		t.Fatalf("want 2 gatekeeping edges, got %d", len(edges))
	}
	if len(s.Bottlenecks()) != 2 {
		t.Fatalf("want 2 bottlenecks, got %d", len(s.Bottlenecks()))
	}
	if s.Forward[0].Rate != 600_000 || s.Forward[1].Rate != 150_000 {
		t.Fatal("spoke rates wrong")
	}
}

func TestStarExplicitPlacementPanicsOutOfRange(t *testing.T) {
	s := Star(Config{Capacities: []int64{100_000}, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range spoke should panic")
		}
	}()
	s.AttachReceiverAt(2, "r", 0)
}
