package netsim

import (
	"fmt"
	"math"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// hostAddrBase is where unicast host addresses are allocated from
// (10.0.0.1 onward).
const hostAddrBase packet.Addr = 0x0A000001

// Network assembles nodes and links, allocates addresses, and computes
// unicast shortest-path routes. It is the substrate every scenario builds
// its topology on.
type Network struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	pool  *packet.Pool

	nodes  []Node
	out    map[NodeID][]*Link
	linkTo map[NodeID]map[NodeID]*Link
	addrOf map[packet.Addr]NodeID

	nextAddr packet.Addr
	// nextHop[from][dstNode] is the first link toward dstNode, nil when
	// unreachable. Only nodes with several out-links have a row; see
	// NextHopTo for the rest.
	nextHop [][]*Link
	links   []*Link // Links()'s flattened view; nil after a Connect
	uid     uint64

	// shard is non-nil when the network executes across a ShardGroup; see
	// shard.go.
	shard *shardState
}

// New creates an empty network driven by sched, drawing any randomness from
// rng (components fork their own sub-streams). The network owns a fresh
// packet pool; SetPool swaps in a shared one before traffic starts.
func New(sched *sim.Scheduler, rng *sim.RNG) *Network {
	return &Network{
		sched:    sched,
		rng:      rng,
		pool:     &packet.Pool{},
		out:      make(map[NodeID][]*Link),
		linkTo:   make(map[NodeID]map[NodeID]*Link),
		addrOf:   make(map[packet.Addr]NodeID),
		nextAddr: hostAddrBase,
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
// Must be called before any traffic is generated.
func (n *Network) SetPool(p *packet.Pool) {
	if p != nil {
		n.pool = p
	}
}

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
	return node
}

// AddHost creates a host with the given name and a fresh unicast address.
func (n *Network) AddHost(name string) *Host {
	h := &Host{name: name, net: n, addr: n.nextAddr}
	n.nextAddr++
	n.Add(func(id NodeID) Node { h.id = id; return h })
	n.addrOf[h.addr] = h.id
	return h
}

// AssignAddr allocates a unicast address for a non-host node (routers need
// addresses so receivers can send them control messages).
func (n *Network) AssignAddr(node Node) packet.Addr {
	a := n.nextAddr
	n.nextAddr++
	n.addrOf[a] = node.ID()
	return a
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// NodeCount reports how many nodes are registered.
func (n *Network) NodeCount() int { return len(n.nodes) }

// HostByAddr resolves a unicast address to its host node ID.
func (n *Network) HostByAddr(a packet.Addr) (NodeID, bool) {
	id, ok := n.addrOf[a]
	return id, ok
}

// Connect joins a and b with a duplex pair of links, each with the given
// rate (bits/s), propagation delay, and queue capacity in bytes. It returns
// the a→b and b→a links.
func (n *Network) Connect(a, b Node, rate int64, delay sim.Time, qcap int) (*Link, *Link) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %d on %s-%s", rate, a.Name(), b.Name()))
	}
	ab := &Link{src: a, dst: b, Rate: rate, Delay: delay, sched: n.sched, Queue: Queue{CapBytes: qcap}}
	ba := &Link{src: b, dst: a, Rate: rate, Delay: delay, sched: n.sched, Queue: Queue{CapBytes: qcap}}
	ab.init()
	ba.init()
	n.registerLink(ab)
	n.registerLink(ba)
	return ab, ba
}

func (n *Network) registerLink(l *Link) {
	from, to := l.src.ID(), l.dst.ID()
	n.out[from] = append(n.out[from], l)
	if n.linkTo[from] == nil {
		n.linkTo[from] = make(map[NodeID]*Link)
	}
	n.linkTo[from][to] = l
	n.links = nil
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

// LinkBetween returns the directed link from a to b, or nil.
func (n *Network) LinkBetween(a, b NodeID) *Link {
	return n.linkTo[a][b]
}

// accessLink returns a host's single outgoing link.
func (n *Network) accessLink(id NodeID) *Link {
	links := n.out[id]
	if len(links) == 0 {
		return nil
	}
	return links[0]
}

// AccessRouter returns the node at the far end of a host's access link.
func (n *Network) AccessRouter(h *Host) Node {
	l := n.accessLink(h.id)
	if l == nil {
		return nil
	}
	return l.dst
}

// ComputeRoutes runs Dijkstra with link propagation delay as the cost
// (plus a small per-hop term so equal-delay paths prefer fewer hops) from
// every node that has a routing choice to make. Hosts and other nodes with
// a single out-link get no row — NextHopTo answers for them — so the table
// is O(routers·N), not O(N²). Must be called after topology construction
// and before traffic.
func (n *Network) ComputeRoutes() {
	const hopEpsilon = int64(sim.Microsecond)
	count := len(n.nodes)
	n.nextHop = make([][]*Link, count)
	dist := make([]int64, count)
	var q distHeap
	for src := 0; src < count; src++ {
		if len(n.out[NodeID(src)]) > 1 {
			n.nextHop[src] = n.dijkstra(NodeID(src), hopEpsilon, dist, &q)
		}
	}
}

// distItem is one tentative distance in Dijkstra's frontier.
type distItem struct {
	node NodeID
	dist int64
}

// distHeap is a binary min-heap of distItems by value — container/heap's
// sift order exactly, so equal-distance ties pop as they always have,
// without boxing an item per push.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].dist < q[j].dist {
			j = r
		}
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// dijkstra returns, for every destination, the first link out of src on a
// shortest path toward it. dist and q are scratch shared across sources.
func (n *Network) dijkstra(src NodeID, hopEpsilon int64, dist []int64, q *distHeap) []*Link {
	first := make([]*Link, len(n.nodes)) // first hop link from src toward node
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	q.push(distItem{node: src})
	for len(*q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, l := range n.out[it.node] {
			to := l.dst.ID()
			d := it.dist + int64(l.Delay) + hopEpsilon
			if d < dist[to] {
				dist[to] = d
				if it.node == src {
					first[to] = l
				} else {
					first[to] = first[it.node]
				}
				q.push(distItem{node: to, dist: d})
			}
		}
	}
	return first
}

// NextHopLink returns the link a packet at node from should take toward the
// node that owns dst, or nil when dst is unknown or unreachable.
func (n *Network) NextHopLink(from NodeID, dst packet.Addr) *Link {
	id, ok := n.addrOf[dst]
	if !ok {
		return nil
	}
	return n.NextHopTo(from, id)
}

// NextHopTo returns the first link on the shortest path from one node to
// another, or nil. A node with a single out-link has no row of its own:
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

// PathDelay sums propagation delays on the shortest path between two nodes.
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

// Path returns the node sequence of the shortest path, inclusive of both
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
