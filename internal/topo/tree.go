// Package topo builds the simulated networks experiments run on. Every
// shape is a Tree of multicast routers: sources feed an ingress router, and
// each hop is an independent bottleneck link with its own capacity and
// drop-tail queue. The paper's §5.1 dumbbell is one hop; a parking-lot
// chain places hops in series; a star places them in parallel, one SIGMA
// gatekeeper per edge (the incremental-deployment picture of §3.2.3). Side
// links carry 10 Mbps and 10 ms by default on every shape (§5.1); each hop
// carries 20 ms unless its Config says otherwise.
//
// The paper sets "buffer space for each link equal to two bandwidth-delay
// products" without fixing which delay; this builder uses the round trip to
// the deepest leaf (80 ms on the default dumbbell) times the link rate, the
// reading that yields NS-2-like queue depths (≈34 packets of 576 B on a
// 1 Mbps bottleneck).
package topo

import (
	"fmt"
	"slices"
	"strconv"

	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/sim"
)

// Config parameterizes every shape; a zero or negative HopDelay takes the
// §5.1 default.
type Config struct {
	// Capacities holds each hop's rate in bits/s: the dumbbell's one
	// bottleneck, a chain's hops ingress to egress, or a star's spokes.
	Capacities []int64
	// HopDelay is each hop's propagation delay (default 20 ms).
	HopDelay sim.Time
	// Seed drives all experiment randomness.
	Seed uint64
}

// PaperConfig returns the §5.1 dumbbell for a given bottleneck capacity.
func PaperConfig(bottleneck int64, seed uint64) Config {
	return Config{
		Capacities: []int64{bottleneck},
		HopDelay:   20 * sim.Millisecond,
		Seed:       seed,
	}
}

// Tree is an assembled topology: an ingress router Routers[0] and one
// router per hop, where Forward[i] feeds Routers[i+1].
type Tree struct {
	// Routers holds the ingress router, then one router per hop.
	Routers []*mcast.Router
	// Forward holds the hop links (the bottlenecks), in Capacities order.
	Forward []*netsim.Link

	net    *netsim.Network
	fabric *mcast.Fabric
	cfg    Config
	// depth counts the hops from the ingress to a leaf; the leaves are
	// Routers[depth:] (a series' far end, or every spoke of a star).
	depth    int
	next     int // leaf offset of the next default placement
	nHosts   int
	edges    []*mcast.Router
	finished bool
}

// Dumbbell builds the paper's one-bottleneck topology, routers left and
// right.
func Dumbbell(cfg Config) *Tree {
	if len(cfg.Capacities) != 1 {
		panic("topo: a dumbbell has exactly one bottleneck")
	}
	return build(cfg, true, func(i int) string { return [...]string{"left", "right"}[i] })
}

// Chain builds a multi-bottleneck parking lot, routers r0 … rk with the
// hops in series: a far receiver's traffic crosses every bottleneck while
// a near one (AttachReceiverAt) competes only on the first hops.
func Chain(cfg Config) *Tree {
	return build(cfg, true, func(i int) string { return fmt.Sprintf("r%d", i) })
}

// Star builds a hub with the hops in parallel, one spoke per capacity down
// to its own edge router edge0 … edge(k−1); one multicast transmission
// fans out across spokes of different capacities, and each edge enforces
// SIGMA on its own.
func Star(cfg Config) *Tree {
	return build(cfg, false, func(i int) string {
		if i == 0 {
			return "hub"
		}
		return fmt.Sprintf("edge%d", i-1)
	})
}

// build assembles a tree whose hops hang in series (each off the previous
// hop's router) or in parallel (all off the ingress); name labels router i.
func build(cfg Config, series bool, name func(i int) string) *Tree {
	if len(cfg.Capacities) == 0 {
		panic("topo: a topology needs at least one hop")
	}
	for _, r := range cfg.Capacities {
		if r <= 0 {
			panic("topo: hop rates must be positive")
		}
	}
	if cfg.HopDelay <= 0 {
		cfg.HopDelay = 20 * sim.Millisecond
	}
	net := netsim.New(sim.NewScheduler(), sim.NewRNG(cfg.Seed))
	t := &Tree{net: net, fabric: mcast.NewFabric(net), cfg: cfg, depth: 1}
	if series {
		t.depth = len(cfg.Capacities)
	}
	rtt := t.RTT()
	t.Routers = make([]*mcast.Router, 1, len(cfg.Capacities)+1)
	t.Routers[0] = mcast.NewRouter(net, t.fabric, name(0))
	t.Forward = make([]*netsim.Link, len(cfg.Capacities))
	for i, rate := range cfg.Capacities {
		parent := t.Routers[0]
		if series {
			parent = t.Routers[i]
		}
		r := mcast.NewRouter(net, t.fabric, name(i+1))
		t.Routers = append(t.Routers, r)
		t.Forward[i], _ = net.Connect(parent, r, rate, cfg.HopDelay, bdpQueue(rate, rtt, 0))
	}
	return t
}

// RTT returns the round-trip propagation time between a default-delay
// source and a default-delay receiver at the deepest leaf.
func (t *Tree) RTT() sim.Time {
	return 2 * (sideDelay + sim.Time(t.depth)*t.cfg.HopDelay + sideDelay)
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
