package netsim

import (
	"fmt"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// hostAddrBase is where unicast host addresses are allocated from
// (10.0.0.1 onward).
const hostAddrBase packet.Addr = 0x0A000001

// Network assembles nodes and links, allocates addresses, and computes
// unicast routes over its tree. It is the substrate every scenario builds
// its topology on.
type Network struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	pool  *packet.Pool

	// Node IDs and unicast addresses are issued densely, so both index
	// slices: out[id] is a node's out-links in registration order, and
	// addrOf[a−hostAddrBase] the node that owns address a.
	nodes  []Node
	out    [][]*Link
	addrOf []NodeID

	// nextHop[from][dstNode] is the first link toward dstNode, nil when
	// unreachable. Only nodes with several out-links have a row; see
	// NextHopTo for the rest.
	nextHop [][]*Link
	links   []*Link // Links()'s flattened view; nil after a Connect
	uid     uint64

	// shard is non-nil when the network executes across a ShardGroup; see
	// shard.go.
	shard *shardState

	// delayGen counts delay changes and connections (DelayVersion).
	delayGen uint64
	// simulateDoomed turns the doomed-packet fast path off (see
	// SimulateDoomed).
	simulateDoomed bool
}

// New creates an empty network driven by sched, drawing any randomness from
// rng (components fork their own sub-streams). The network owns a fresh
// packet pool; SetPool swaps in a shared one before traffic starts.
func New(sched *sim.Scheduler, rng *sim.RNG) *Network {
	return &Network{
		sched: sched,
		rng:   rng,
		pool:  &packet.Pool{},
	}
}

// Scheduler returns the simulation clock driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// RNG returns the network's randomness source.
func (n *Network) RNG() *sim.RNG { return n.rng }

// Pool returns the packet pool every agent on this network draws from.
func (n *Network) Pool() *packet.Pool { return n.pool }

// SetPool replaces the network's packet pool — campaign workers inject a
// worker-local pool here so consecutive grid points reuse one warm freelist.
// The network's scheduler, while still empty, also adopts the scheduler
// memory a closed experiment parked in the pool. Must be called before any
// traffic is generated.
func (n *Network) SetPool(p *packet.Pool) {
	if p != nil {
		n.pool = p
		n.sched.Adopt(p.Parked())
	}
}

// DelayVersion counts link delay changes and connections: anything cached
// from the delays around a node stays valid while it does not move.
func (n *Network) DelayVersion() uint64 { return n.delayGen }

// SimulateDoomed turns the doomed-packet fast path off: every packet a
// Doomer would declare dead is built, carried and delivered like any
// other. Results are the same either way; tests compare the two.
func (n *Network) SimulateDoomed() { n.simulateDoomed = true }

// NewUID issues a unique packet identifier for tracing.
func (n *Network) NewUID() uint64 {
	n.uid++
	return n.uid
}

// NewPacket builds a pooled packet with a fresh trace UID — the standard
// way agents mint traffic. The caller owns the returned reference and
// transfers it by sending.
func (n *Network) NewPacket(src, dst packet.Addr, size int, hdr packet.Header) *packet.Packet {
	p := n.pool.Get(src, dst, size, hdr)
	p.UID = n.NewUID()
	return p
}

// Add registers a node constructed by make with a freshly assigned ID.
// Router types in other packages use this to join the network.
func (n *Network) Add(make func(id NodeID) Node) Node {
	id := NodeID(len(n.nodes))
	node := make(id)
	n.nodes = append(n.nodes, node)
	n.out = append(n.out, nil)
	return node
}

// AddHost creates a host with the given name and a fresh unicast address.
func (n *Network) AddHost(name string) *Host {
	h := &Host{name: name, net: n}
	n.Add(func(id NodeID) Node { h.id = id; return h })
	h.addr = n.AssignAddr(h)
	return h
}

// AssignAddr allocates a unicast address for a non-host node (routers need
// addresses so receivers can send them control messages).
func (n *Network) AssignAddr(node Node) packet.Addr {
	a := hostAddrBase + packet.Addr(len(n.addrOf))
	n.addrOf = append(n.addrOf, node.ID())
	return a
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// NodeCount reports how many nodes are registered.
func (n *Network) NodeCount() int { return len(n.nodes) }

// HostByAddr resolves a unicast address to its host node ID. An address
// the network never issued — a group address among them — is not found.
func (n *Network) HostByAddr(a packet.Addr) (NodeID, bool) {
	i := a - hostAddrBase // wraps past the slice below the base
	if uint64(i) >= uint64(len(n.addrOf)) {
		return 0, false
	}
	return n.addrOf[i], true
}

// Connect joins a and b with a duplex pair of links, each with the given
// rate (bits/s), propagation delay, and queue capacity in bytes. It returns
// the a→b and b→a links. A pair is connected at most once.
func (n *Network) Connect(a, b Node, rate int64, delay sim.Time, qcap int) (*Link, *Link) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %d on %s-%s", rate, a.Name(), b.Name()))
	}
	if n.LinkBetween(a.ID(), b.ID()) != nil {
		panic(fmt.Sprintf("netsim: %s and %s are already connected", a.Name(), b.Name()))
	}
	pair := &[2]Link{
		{src: a, dst: b, Rate: rate, Delay: delay, sched: n.sched, net: n, Queue: Queue{CapBytes: qcap}},
		{src: b, dst: a, Rate: rate, Delay: delay, sched: n.sched, net: n, Queue: Queue{CapBytes: qcap}},
	}
	ab, ba := &pair[0], &pair[1]
	ab.rev, ba.rev = ba, ab
	ab.init()
	ba.init()
	n.out[a.ID()] = append(n.out[a.ID()], ab)
	n.out[b.ID()] = append(n.out[b.ID()], ba)
	n.links = nil
	n.delayGen++
	return ab, ba
}

// OutLinks returns the outgoing links of a node.
func (n *Network) OutLinks(id NodeID) []*Link { return n.out[id] }

// Links returns every directed link in deterministic order (nodes by ID,
// each node's out-links in registration order) — the audit layer iterates
// this, and violation order must not depend on map iteration. The slice
// is cached until the next Connect; callers must not modify it.
func (n *Network) Links() []*Link {
	if n.links == nil {
		for id := range n.nodes {
			n.links = append(n.links, n.out[NodeID(id)]...)
		}
	}
	return n.links
}

// LinkBetween returns the directed link from a to b, or nil. It scans the
// shorter of a's and b's out-links — b's for the link back to a, whose
// duplex partner is the answer — so a router's lookup of one of its hosts
// reads the host's single access link.
func (n *Network) LinkBetween(a, b NodeID) *Link {
	if uint(a) >= uint(len(n.out)) || uint(b) >= uint(len(n.out)) {
		return nil
	}
	if from, to := n.out[a], n.out[b]; len(to) < len(from) {
		for _, l := range to {
			if l.dst.ID() == a {
				return l.rev
			}
		}
	} else {
		for _, l := range from {
			if l.dst.ID() == b {
				return l
			}
		}
	}
	return nil
}

// accessLink returns a host's single outgoing link.
func (n *Network) accessLink(id NodeID) *Link {
	links := n.out[id]
	if len(links) == 0 {
		return nil
	}
	return links[0]
}

// ComputeRoutes fills the unicast next-hop table by a breadth-first walk
// from every node that has a routing choice to make. Every network is a
// tree, so each destination has exactly one path and the walk finds it;
// a walk that reaches a node twice has found a cycle and panics. Hosts
// and other nodes with a single out-link get no row — NextHopTo answers
// for them — so the table is O(routers·N), not O(N²). Must be called after
// topology construction and before traffic.
func (n *Network) ComputeRoutes() {
	n.nextHop = make([][]*Link, len(n.nodes))
	var queue []*Link
	for src, out := range n.out {
		if len(out) > 1 {
			n.nextHop[src], queue = n.walk(NodeID(src), queue)
		}
	}
}

// walk returns, for every node reachable from src, the first link out of
// src toward it. queue is scratch shared across sources, returned for
// reuse: each entry is the link the walk arrived by, so the walk never
// turns back along its duplex partner.
func (n *Network) walk(src NodeID, queue []*Link) ([]*Link, []*Link) {
	first := make([]*Link, len(n.nodes))
	queue = append(queue[:0], n.out[src]...)
	for i := 0; i < len(queue); i++ {
		in := queue[i]
		to := in.dst.ID()
		if to == src || first[to] != nil {
			panic(fmt.Sprintf("netsim: link %v closes a cycle; unicast routes need a tree", in))
		}
		first[to] = in
		if from := in.src.ID(); from != src {
			first[to] = first[from]
		}
		for _, l := range n.out[to] {
			if l != in.rev {
				queue = append(queue, l)
			}
		}
	}
	return first, queue
}

// NextHopLink returns the link a packet at node from should take toward the
// node that owns dst, or nil when dst is unknown or unreachable.
func (n *Network) NextHopLink(from NodeID, dst packet.Addr) *Link {
	id, ok := n.HostByAddr(dst)
	if !ok {
		return nil
	}
	return n.NextHopTo(from, id)
}

// NextHopTo returns the first link on the path from one node to another,
// or nil. A node with a single out-link has no row of its own:
// its link is the first hop to its neighbour and to whatever the
// neighbour's row reaches. (A neighbour without a row has one link too,
// and links come in duplex pairs, so that link leads straight back.)
func (n *Network) NextHopTo(from, to NodeID) *Link {
	if n.nextHop == nil {
		panic("netsim: ComputeRoutes not called")
	}
	if from == to {
		return nil
	}
	if row := n.nextHop[from]; row != nil {
		return row[to]
	}
	l := n.accessLink(from)
	if l == nil {
		return nil
	}
	if via := l.dst.ID(); via != to {
		if row := n.nextHop[via]; row == nil || row[to] == nil {
			return nil
		}
	}
	return l
}

// PathDelay sums propagation delays on the path between two nodes.
// It returns false when no path exists.
func (n *Network) PathDelay(from, to NodeID) (sim.Time, bool) {
	var total sim.Time
	cur := from
	for cur != to {
		l := n.NextHopTo(cur, to)
		if l == nil {
			return 0, false
		}
		total += l.Delay
		cur = l.dst.ID()
	}
	return total, true
}

// Path returns the node sequence of the path, inclusive of both
// endpoints, or nil when unreachable.
func (n *Network) Path(from, to NodeID) []NodeID {
	path := []NodeID{from}
	cur := from
	for cur != to {
		l := n.NextHopTo(cur, to)
		if l == nil {
			return nil
		}
		cur = l.dst.ID()
		path = append(path, cur)
	}
	return path
}
