// Package topo builds the simulated networks experiments run on. Every
// shape is a Tree of multicast routers: sources feed an ingress router, and
// each hop is an independent bottleneck link with its own capacity and
// drop-tail queue. The paper's §5.1 dumbbell is one hop; a parking-lot
// chain places hops in series; a star places them in parallel, one SIGMA
// gatekeeper per edge (the incremental-deployment picture of §3.2.3). Side
// links carry 10 Mbps and 10 ms by default on every shape (§5.1); each hop
// carries 20 ms unless its Spec says otherwise.
//
// The paper sets "buffer space for each link equal to two bandwidth-delay
// products" without fixing which delay; this builder uses the round trip to
// the deepest leaf (80 ms on the default dumbbell) times the link rate, the
// reading that yields NS-2-like queue depths (≈34 packets of 576 B on a
// 1 Mbps bottleneck).
package topo

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/sim"
)

// Spec names a network by value: its shape, one capacity per hop and the
// hops' propagation delay. Every shape is one Tree of branch points: a
// dumbbell is one hop, a chain puts its hops in series and a star puts them
// in parallel, one SIGMA gatekeeper per spoke.
type Spec struct {
	// Kind is "dumbbell", "chain" or "star".
	Kind string `json:"kind"`
	// CapacitiesBps holds each hop's rate in bits/s: the dumbbell's one
	// bottleneck, a chain's hops ingress to egress, or a star's spokes.
	CapacitiesBps []int64 `json:"capacities_bps"`
	// HopDelay is each hop's propagation delay; 0 takes the §5.1 20 ms.
	HopDelay sim.Time `json:"hop_delay_ns,omitempty"`
}

// Check reports the first rule s breaks: an unknown kind, a dumbbell
// with other than one capacity, a chain or star without any, a capacity
// that is not positive, or a negative hop delay.
func (s Spec) Check() error {
	switch n := len(s.CapacitiesBps); {
	case s.Kind != "dumbbell" && s.Kind != "chain" && s.Kind != "star":
		return fmt.Errorf("deltasigma: unknown topology kind %q (dumbbell, chain or star)", s.Kind)
	case s.Kind == "dumbbell" && n != 1:
		return fmt.Errorf("deltasigma: a dumbbell takes exactly one capacity, got %d", n)
	case n == 0:
		return fmt.Errorf("deltasigma: a %s needs at least one capacity", s.Kind)
	case s.HopDelay < 0:
		return fmt.Errorf("deltasigma: topology hop delay %v is negative", s.HopDelay)
	}
	for _, c := range s.CapacitiesBps {
		if c <= 0 {
			return fmt.Errorf("deltasigma: %s capacity %d must be positive", s.Kind, c)
		}
	}
	return nil
}

// Tree is an assembled topology: an ingress router Routers[0] and one
// router per hop, where Forward[i] feeds Routers[i+1].
type Tree struct {
	// Routers holds the ingress router, then one router per hop.
	Routers []*mcast.Router
	// Forward holds the hop links (the bottlenecks), in capacity order.
	Forward []*netsim.Link

	net      *netsim.Network
	fabric   *mcast.Fabric
	hopDelay sim.Time
	// depth counts the hops from the ingress to a leaf; the leaves are
	// Routers[depth:] (a series' far end, or every spoke of a star).
	depth    int
	next     int // leaf offset of the next default placement
	nHosts   int
	edges    []*mcast.Router
	finished bool
}

// Build assembles the tree s names on seed, and panics on a spec Check
// refuses. A chain's far receivers cross every hop while a near one
// (AttachReceiverAt) competes only on the first; a star fans one multicast
// transmission out across spokes of different capacities, each edge
// enforcing SIGMA on its own.
func (s Spec) Build(seed uint64) *Tree {
	if err := s.Check(); err != nil {
		panic(err)
	}
	net := netsim.New(sim.NewScheduler(), sim.NewRNG(seed))
	t := &Tree{net: net, fabric: mcast.NewFabric(net), hopDelay: cmp.Or(s.HopDelay, 20*sim.Millisecond), depth: 1}
	series := s.Kind != "star"
	if series {
		t.depth = len(s.CapacitiesBps)
	}
	rtt := t.RTT()
	t.Routers = make([]*mcast.Router, 1, len(s.CapacitiesBps)+1)
	t.Routers[0] = mcast.NewRouter(net, t.fabric, s.routerName(0))
	t.Forward = make([]*netsim.Link, len(s.CapacitiesBps))
	for i, rate := range s.CapacitiesBps {
		parent := t.Routers[0]
		if series {
			parent = t.Routers[i]
		}
		r := mcast.NewRouter(net, t.fabric, s.routerName(i+1))
		t.Routers = append(t.Routers, r)
		t.Forward[i], _ = net.Connect(parent, r, rate, t.hopDelay, bdpQueue(rate, rtt, 0))
	}
	return t
}

// routerName labels router i (0 is the ingress): left and right on a
// dumbbell, r0 … rk on a chain, hub and edge0 … edge(k−1) on a star.
func (s Spec) routerName(i int) string {
	switch {
	case s.Kind == "dumbbell":
		return [...]string{"left", "right"}[i]
	case s.Kind == "chain":
		return fmt.Sprintf("r%d", i)
	case i == 0:
		return "hub"
	}
	return fmt.Sprintf("edge%d", i-1)
}

// RTT returns the round-trip propagation time between a default-delay
// source and a default-delay receiver at the deepest leaf.
func (t *Tree) RTT() sim.Time {
	return 2 * (sideDelay + sim.Time(t.depth)*t.hopDelay + sideDelay)
}

// Scheduler returns the virtual clock everything runs on.
func (t *Tree) Scheduler() *sim.Scheduler { return t.net.Scheduler() }

// Rand returns the topology's root RNG (fork it per agent).
func (t *Tree) Rand() *sim.RNG { return t.net.RNG() }

// Network returns the underlying link-level network.
func (t *Tree) Network() *netsim.Network { return t.net }

// Multicast returns the group-distribution fabric.
func (t *Tree) Multicast() *mcast.Fabric { return t.fabric }

// AttachSource adds a sender host behind the ingress router.
func (t *Tree) AttachSource(name string) *netsim.Host {
	return t.attachHost(t.hostName(name, "src"), t.Routers[0], sideDelay)
}

// AttachReceiver adds a receiver host at the default egress with the given
// access-link delay (negative — DefaultDelay — selects the side delay) and
// returns it together with its gatekeeping edge router. The default egress
// is the far end of a series, and cycles over the spokes of a star.
func (t *Tree) AttachReceiver(name string, delay sim.Time) Port {
	return t.AttachReceiverAt(t.leaf(), name, delay)
}

// AttachReceiverAt adds a receiver behind Routers[router] (1 …
// len(Routers)−1): downstream of the first router hops of a series, or
// behind spoke router−1 of a star.
func (t *Tree) AttachReceiverAt(router int, name string, delay sim.Time) Port {
	if router < 1 || router >= len(t.Routers) {
		panic(fmt.Sprintf("topo: router %d out of range 1..%d", router, len(t.Routers)-1))
	}
	edge := t.Routers[router]
	h := t.attachHost(t.hostName(name, "rcv"), edge, delay)
	edge.AttachLocal(h)
	if !slices.Contains(t.edges, edge) {
		t.edges = append(t.edges, edge)
	}
	return Port{Host: h, Edge: edge}
}

// AttachCohort adds an aggregated-receiver attachment point: a private
// edge router hung off the default egress (in the same cycle as receivers)
// over an access link with the given delay, plus the cohort's host behind
// it. The private edge is deliberately absent from Edges() — the cohort
// installs its own gatekeeper, so graft/prune state on that edge belongs
// to the cohort alone and bulk join/leave never disturbs exact receivers
// sharing the upstream router.
func (t *Tree) AttachCohort(name string, delay sim.Time) Port {
	parent := t.Routers[t.leaf()]
	name = t.hostName(name, "cohort")
	edge := mcast.NewRouter(t.net, t.fabric, name+"-edge")
	t.connectAccess(parent, edge, delay)
	h := t.net.AddHost(name)
	t.net.Connect(h, edge, cohortStubRate, 0, 1<<20)
	edge.AttachLocal(h)
	return Port{Host: h, Edge: edge}
}

// Edges lists every router that gatekeeps at least one attached receiver,
// in attachment order; experiments install one gatekeeper (SIGMA
// controller or IGMP) per edge.
func (t *Tree) Edges() []*mcast.Router { return t.edges }

// Bottlenecks returns the hop links, the congested forward links.
func (t *Tree) Bottlenecks() []*netsim.Link { return t.Forward }

// Finish completes construction (routing tables) once all hosts are
// attached; idempotent.
func (t *Tree) Finish() {
	if t.finished {
		return
	}
	t.finished = true
	t.net.ComputeRoutes()
}

// leaf returns the index of the next default egress router, taking the
// leaves Routers[depth:] in turn.
func (t *Tree) leaf() int {
	i := t.depth + t.next
	t.next = (t.next + 1) % (len(t.Routers) - t.depth)
	return i
}

// hostName returns name, or an automatic one numbered in attachment order.
func (t *Tree) hostName(name, kind string) string {
	t.nHosts++
	if name == "" {
		var buf [16]byte // one allocation: the name itself
		name = string(strconv.AppendInt(append(buf[:0], kind...), int64(t.nHosts), 10))
	}
	return name
}

// connectAccess joins a and b over an access link: the side rate, delay
// (DefaultDelay, or any negative one, takes the side delay) and a two-BDP
// queue on the tree RTT, floored so access links never bottleneck on
// buffer space.
func (t *Tree) connectAccess(a, b netsim.Node, delay sim.Time) {
	if delay < 0 {
		delay = sideDelay
	}
	t.net.Connect(a, b, sideRate, delay, bdpQueue(sideRate, t.RTT(), 1<<16))
}

// attachHost creates a host and connects it to router over an access link.
func (t *Tree) attachHost(name string, router *mcast.Router, delay sim.Time) *netsim.Host {
	h := t.net.AddHost(name)
	t.connectAccess(h, router, delay)
	return h
}
