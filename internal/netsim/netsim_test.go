package netsim

import (
	"strings"
	"testing"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// fwd is a minimal unicast router used to exercise the substrate before the
// real multicast router (internal/mcast) exists.
type fwd struct {
	id   NodeID
	name string
	net  *Network
}

func (f *fwd) ID() NodeID   { return f.id }
func (f *fwd) Name() string { return f.name }
func (f *fwd) Receive(pkt *packet.Packet, from *Link) {
	if l := f.net.NextHopLink(f.id, pkt.Dst); l != nil {
		l.Send(pkt)
	}
}

func addFwd(n *Network, name string) *fwd {
	f := &fwd{name: name, net: n}
	n.Add(func(id NodeID) Node { f.id = id; return f })
	return f
}

func newNet() (*sim.Scheduler, *Network) {
	sched := sim.NewScheduler()
	return sched, New(sched, sim.NewRNG(1))
}

func TestHostAddressesAreUniqueUnicast(t *testing.T) {
	_, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	if a.Addr() == b.Addr() {
		t.Fatal("hosts share an address")
	}
	if a.Addr().IsMulticast() || b.Addr().IsMulticast() {
		t.Fatal("host got a multicast address")
	}
	if id, ok := n.HostByAddr(a.Addr()); !ok || id != a.ID() {
		t.Fatal("HostByAddr lookup failed")
	}
}

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	// 1 Mbps, 10 ms: a 1000-byte packet serializes in 8 ms, arrives at 18 ms.
	n.Connect(a, b, 1_000_000, 10*sim.Millisecond, 1<<20)
	n.ComputeRoutes()

	var arrived sim.Time
	b.Handle(packet.ProtoNone, func(pkt *packet.Packet) { arrived = sched.Now() })
	sched.At(0, func() { a.Send(packet.New(a.Addr(), b.Addr(), 1000, nil)) })
	sched.Run()
	want := 18 * sim.Millisecond
	if arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.Connect(a, b, 1_000_000, 0, 1<<20)
	n.ComputeRoutes()

	var arrivals []sim.Time
	b.Handle(packet.ProtoNone, func(pkt *packet.Packet) { arrivals = append(arrivals, sched.Now()) })
	sched.At(0, func() {
		for i := 0; i < 3; i++ {
			a.Send(packet.New(a.Addr(), b.Addr(), 1000, nil))
		}
	})
	sched.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrivals))
	}
	// Each packet serializes in 8 ms; deliveries at 8, 16, 24 ms.
	for i, at := range arrivals {
		want := sim.Time(i+1) * 8 * sim.Millisecond
		if at != want {
			t.Fatalf("packet %d at %v, want %v", i, at, want)
		}
	}
}

func TestQueueDropTail(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.Connect(a, b, 1_000_000, 0, 2500) // room for ~2 packets beyond the one in service
	n.ComputeRoutes()

	delivered := 0
	b.Handle(packet.ProtoNone, func(pkt *packet.Packet) { delivered++ })
	sched.At(0, func() {
		for i := 0; i < 10; i++ {
			a.Send(packet.New(a.Addr(), b.Addr(), 1000, nil))
		}
	})
	sched.Run()
	// First packet dequeues instantly leaving queue empty, then packets fill
	// the 2500-byte queue (2 packets); subsequent sends drop. As the line
	// drains one more packet fits per dequeue... but all sends happen at
	// t=0, so: 1 in service + 2 queued = 3 delivered, 7 dropped.
	if delivered != 3 {
		t.Fatalf("delivered %d, want 3", delivered)
	}
	if ab.Queue.Dropped != 7 {
		t.Fatalf("dropped %d, want 7", ab.Queue.Dropped)
	}
}

// A packet that finds its link idle goes straight to serialization: the
// queue's ring is never allocated, yet the high-water mark and the drop of
// a packet larger than the queue read as if it had passed through.
func TestIdleLinkSkipsItsQueue(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.Connect(a, b, 1_000_000, 0, 1500)
	n.ComputeRoutes()
	delivered := 0
	b.Handle(packet.ProtoNone, func(pkt *packet.Packet) { delivered++ })
	for i := 0; i < 3; i++ {
		sched.At(sim.Time(i)*sim.Second, func() { a.Send(packet.New(a.Addr(), b.Addr(), 1000, nil)) })
	}
	sched.At(4*sim.Second, func() { a.Send(packet.New(a.Addr(), b.Addr(), 2000, nil)) })
	sched.Run()
	if delivered != 3 || ab.Queue.Dropped != 1 {
		t.Fatalf("delivered %d and dropped %d, want 3 and the oversized 1", delivered, ab.Queue.Dropped)
	}
	if ab.Queue.MaxFilled != 1000 {
		t.Fatalf("MaxFilled = %d, want 1000: each packet occupies the empty queue as it passes", ab.Queue.MaxFilled)
	}
	if got := ab.Queue.ring.capacity(); got != 0 {
		t.Fatalf("an idle link's queue allocated a ring of %d", got)
	}
}

// Regression: a continuously busy queue (never fully drains) must cycle
// packets through a fixed ring rather than creep down an ever-growing
// backing array. The old q.pkts = q.pkts[1:] advance only released memory
// on a full drain, which a saturated bottleneck never reaches.
func TestQueueRingDoesNotGrowWhenBusy(t *testing.T) {
	var q Queue
	const depth = 4
	// Prime the queue to its working depth, then push/pop in lockstep for
	// far more than 10× that capacity, never letting it drain.
	for i := 0; i < depth; i++ {
		if !q.push(packet.New(1, 2, 100, nil)) {
			t.Fatal("push failed on unbounded queue")
		}
	}
	ringCap := q.ring.capacity()
	for i := 0; i < 100*depth; i++ {
		if q.pop() == nil {
			t.Fatalf("pop %d returned nil from non-empty queue", i)
		}
		if !q.push(packet.New(1, 2, 100, nil)) {
			t.Fatalf("push %d failed", i)
		}
		if got := q.ring.capacity(); got != ringCap {
			t.Fatalf("ring grew from %d to %d after %d steady-state cycles", ringCap, got, i+1)
		}
	}
	if q.Len() != depth {
		t.Fatalf("Len = %d, want %d", q.Len(), depth)
	}
	if q.Bytes() != depth*100 {
		t.Fatalf("Bytes = %d, want %d", q.Bytes(), depth*100)
	}
}

// The ring must preserve FIFO order across growth (wrap-around unwrapping)
// and interleaved push/pop.
func TestQueueRingFIFOAcrossGrowth(t *testing.T) {
	var q Queue
	next, want := 0, 0
	push := func() {
		pkt := packet.New(1, 2, 100, nil)
		pkt.UID = uint64(next)
		next++
		q.push(pkt)
	}
	popCheck := func() {
		pkt := q.pop()
		if pkt == nil {
			t.Fatalf("pop returned nil, want seq %d", want)
		}
		if int(pkt.UID) != want {
			t.Fatalf("pop = uid %d, want %d", pkt.UID, want)
		}
		want++
	}
	// Offset the head so the first growth has to unwrap a wrapped ring.
	for i := 0; i < 6; i++ {
		push()
	}
	for i := 0; i < 5; i++ {
		popCheck()
	}
	// Grow through several doublings with a wrapped head.
	for i := 0; i < 100; i++ {
		push()
	}
	for q.Len() > 0 {
		popCheck()
	}
	if want != next {
		t.Fatalf("popped %d packets, pushed %d", want, next)
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue must return nil")
	}
}

func TestQueueECNMarking(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.Connect(a, b, 1_000_000, 0, 1<<20)
	ab.Queue.MarkAt = 1500
	n.ComputeRoutes()

	var marks, total int
	b.Handle(packet.ProtoNone, func(pkt *packet.Packet) {
		total++
		if pkt.ECN {
			marks++
		}
	})
	sched.At(0, func() {
		for i := 0; i < 5; i++ {
			a.Send(packet.New(a.Addr(), b.Addr(), 1000, nil))
		}
	})
	sched.Run()
	if total != 5 {
		t.Fatalf("delivered %d, want 5", total)
	}
	// Packet 0 enters service (queue empty). Packets 1,2 enqueue below the
	// 1500B threshold crossing... occupancy when pushing pkt2 is 1000 -> no
	// mark; pkt3 sees 2000 >= 1500 -> marked; pkt4 sees 3000 -> marked.
	if marks != 2 {
		t.Fatalf("marked %d, want 2", marks)
	}
	if ab.Queue.Marked != 2 {
		t.Fatalf("queue.Marked = %d, want 2", ab.Queue.Marked)
	}
}

func TestECNMarkDoesNotMutateSharedPacket(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.Connect(a, b, 1_000_000, 0, 1<<20)
	ab.Queue.MarkAt = 1
	n.ComputeRoutes()

	orig := packet.New(a.Addr(), b.Addr(), 1000, nil)
	sched.At(0, func() {
		a.Send(packet.New(a.Addr(), b.Addr(), 1000, nil)) // fills service
		a.Send(orig)                                      // enqueued, marked
	})
	sched.Run()
	if orig.ECN {
		t.Fatal("marking mutated the sender's packet instead of a clone")
	}
}

// A triangle of routers has two paths between any two of them; routes are
// computed on trees only, so ComputeRoutes refuses it and names a link of
// the cycle.
func TestComputeRoutesPanicsOnCycle(t *testing.T) {
	_, n := newNet()
	r1, r2, r3 := addFwd(n, "r1"), addFwd(n, "r2"), addFwd(n, "r3")
	n.Connect(n.AddHost("a"), r1, 10_000_000, sim.Millisecond, 1<<20)
	n.Connect(r1, r2, 10_000_000, sim.Millisecond, 1<<20)
	n.Connect(r2, r3, 10_000_000, sim.Millisecond, 1<<20)
	n.Connect(r3, r1, 10_000_000, 50*sim.Millisecond, 1<<20)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "cycle") || !strings.Contains(msg, "->") {
			t.Fatalf("ComputeRoutes on a triangle: recovered %q, want a panic naming a link of the cycle", msg)
		}
	}()
	n.ComputeRoutes()
}

func TestRoutingMultiHopChain(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	r1 := addFwd(n, "r1")
	r2 := addFwd(n, "r2")
	r3 := addFwd(n, "r3")
	n.Connect(a, r1, 10_000_000, sim.Millisecond, 1<<20)
	n.Connect(r1, r2, 10_000_000, sim.Millisecond, 1<<20)
	n.Connect(r2, r3, 10_000_000, sim.Millisecond, 1<<20)
	n.Connect(r3, b, 10_000_000, sim.Millisecond, 1<<20)
	n.ComputeRoutes()

	got := 0
	b.Handle(packet.ProtoNone, func(pkt *packet.Packet) { got++ })
	sched.At(0, func() { a.Send(packet.New(a.Addr(), b.Addr(), 100, nil)) })
	sched.Run()
	if got != 1 {
		t.Fatal("packet lost on multi-hop chain")
	}
	if p := n.Path(a.ID(), b.ID()); len(p) != 5 {
		t.Fatalf("path length %d, want 5", len(p))
	}
}

func TestUnreachableDestination(t *testing.T) {
	_, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b") // never connected
	n.Connect(a, addFwd(n, "r"), 1_000_000, 0, 1<<20)
	n.ComputeRoutes()
	if l := n.NextHopLink(a.ID(), b.Addr()); l != nil {
		// a's access link exists but b is unreachable from r; from a the
		// first hop may exist, so check from the router instead.
		t.Log("first hop exists; checking router")
	}
	if _, ok := n.PathDelay(a.ID(), b.ID()); ok {
		t.Fatal("PathDelay should fail for unreachable node")
	}
	if p := n.Path(a.ID(), b.ID()); p != nil {
		t.Fatalf("Path should be nil, got %v", p)
	}
}

func TestHostHandlerDispatchByProto(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.Connect(a, b, 1_000_000, 0, 1<<20)
	n.ComputeRoutes()

	var tcp, all int
	b.Handle(packet.ProtoTCP, func(pkt *packet.Packet) { tcp++ })
	b.HandleAll(func(pkt *packet.Packet) { all++ })
	sched.At(0, func() {
		a.Send(packet.New(a.Addr(), b.Addr(), 576, &packet.TCPHeader{Flow: 1, Seq: 0, Len: 536}))
		a.Send(packet.New(a.Addr(), b.Addr(), 576, &packet.CBRHeader{Flow: 1}))
	})
	sched.Run()
	if tcp != 1 {
		t.Fatalf("tcp handler fired %d times, want 1", tcp)
	}
	if all != 2 {
		t.Fatalf("catch-all fired %d times, want 2", all)
	}
	if b.Received[packet.ProtoCBR] != 1 || b.RecvBytes != 1152 {
		t.Fatalf("accounting wrong: %v recvBytes=%d", b.Received, b.RecvBytes)
	}
}

func TestNewUIDMonotone(t *testing.T) {
	_, n := newNet()
	prev := n.NewUID()
	for i := 0; i < 100; i++ {
		u := n.NewUID()
		if u <= prev {
			t.Fatal("UIDs must increase")
		}
		prev = u
	}
}

func TestConnectRejectsZeroRate(t *testing.T) {
	_, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	defer func() {
		if recover() == nil {
			t.Fatal("Connect with rate 0 should panic")
		}
	}()
	n.Connect(a, b, 0, 0, 0)
}

func TestThroughputMatchesLinkRate(t *testing.T) {
	// Saturate a 1 Mbps link for 10 simulated seconds; delivered bytes must
	// match the line rate within one packet.
	sched, n := newNet()
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.Connect(a, b, 1_000_000, 5*sim.Millisecond, 10_000)
	n.ComputeRoutes()

	const pktSize = 1000
	var send func()
	send = func() {
		a.Send(packet.New(a.Addr(), b.Addr(), pktSize, nil))
		// Offer 2 Mbps so the link stays saturated.
		sched.Schedule(sched.Now()+4*sim.Millisecond, send)
	}
	sched.At(0, send)
	sched.RunUntil(10 * sim.Second)

	gotBits := float64(b.RecvBytes) * 8
	wantBits := 1_000_000 * 10.0
	if gotBits < wantBits*0.98 || gotBits > wantBits*1.01 {
		t.Fatalf("throughput %v bits over 10s, want ~%v", gotBits, wantBits)
	}
}

func BenchmarkLinkSaturation(b *testing.B) {
	sched, n := newNet()
	a := n.AddHost("a")
	dst := n.AddHost("b")
	n.Connect(a, dst, 100_000_000, sim.Millisecond, 1<<20)
	n.ComputeRoutes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(packet.New(a.Addr(), dst.Addr(), 576, nil))
		if i%1000 == 0 {
			sched.RunUntil(sched.Now() + sim.Millisecond)
		}
	}
	sched.Run()
}

// Only nodes with a routing choice get a next-hop row; a host (or a stub
// router) answers from its one link and its neighbour's row. The answers
// must be the ones a row of its own would have held — checked against the
// walk run from every node — including "unreachable".
func TestRoutesFromSingleLinkNodes(t *testing.T) {
	_, n := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	c, d := n.AddHost("c"), n.AddHost("d") // an island: two leaves facing each other
	lone := n.AddHost("lone")              // no link at all
	r1, r2 := addFwd(n, "r1"), addFwd(n, "r2")
	stub := addFwd(n, "stub") // a router with one link
	n.Connect(a, r1, 10_000_000, 1*sim.Millisecond, 1<<20)
	n.Connect(r1, r2, 10_000_000, 5*sim.Millisecond, 1<<20)
	n.Connect(r2, b, 10_000_000, 2*sim.Millisecond, 1<<20)
	n.Connect(stub, r1, 10_000_000, 3*sim.Millisecond, 1<<20)
	n.Connect(c, d, 10_000_000, 4*sim.Millisecond, 1<<20)
	n.ComputeRoutes()

	ids := func(nodes ...Node) []NodeID {
		out := make([]NodeID, len(nodes))
		for i, nd := range nodes {
			out[i] = nd.ID()
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		from, to Node
		path     []NodeID // nil: unreachable
		delay    sim.Time
	}{
		{"host to host", a, b, ids(a, r1, r2, b), 8 * sim.Millisecond},
		{"host to its router", a, r1, ids(a, r1), 1 * sim.Millisecond},
		{"host to stub router", a, stub, ids(a, r1, stub), 4 * sim.Millisecond},
		{"stub router to host", stub, b, ids(stub, r1, r2, b), 10 * sim.Millisecond},
		{"router to host", r2, a, ids(r2, r1, a), 6 * sim.Millisecond},
		{"host to itself", a, a, ids(a), 0},
		{"host to unreachable host", a, c, nil, 0},
		{"router to unreachable host", r1, c, nil, 0},
		{"leaf to leaf", c, d, ids(c, d), 4 * sim.Millisecond},
		{"island leaf to the mainland", c, a, nil, 0},
		{"from a node with no link", lone, a, nil, 0},
		{"to a node with no link", a, lone, nil, 0},
	} {
		got := n.Path(tc.from.ID(), tc.to.ID())
		if len(got) != len(tc.path) {
			t.Errorf("%s: path %v, want %v", tc.name, got, tc.path)
			continue
		}
		for i := range got {
			if got[i] != tc.path[i] {
				t.Errorf("%s: path %v, want %v", tc.name, got, tc.path)
				break
			}
		}
		delay, ok := n.PathDelay(tc.from.ID(), tc.to.ID())
		if ok != (tc.path != nil) || delay != tc.delay {
			t.Errorf("%s: PathDelay = %v, %v; want %v, %v", tc.name, delay, ok, tc.delay, tc.path != nil)
		}
	}

	for from := 0; from < n.NodeCount(); from++ {
		hasRow := n.nextHop[from] != nil
		if want := len(n.OutLinks(NodeID(from))) > 1; hasRow != want {
			t.Errorf("%s: next-hop row present = %v, want %v", n.Node(NodeID(from)).Name(), hasRow, want)
		}
		row, _ := n.walk(NodeID(from), nil)
		for to := 0; to < n.NodeCount(); to++ {
			if got := n.NextHopTo(NodeID(from), NodeID(to)); got != row[to] {
				t.Errorf("NextHopTo(%s, %s) = %v, a row of its own says %v",
					n.Node(NodeID(from)).Name(), n.Node(NodeID(to)).Name(), got, row[to])
			}
		}
	}
}

// Links() hands out one cached slice until the topology grows.
func TestLinksCachedUntilConnect(t *testing.T) {
	_, n := newNet()
	a, b, c := n.AddHost("a"), n.AddHost("b"), n.AddHost("c")
	ab, ba := n.Connect(a, b, 1_000_000, 0, 1<<20)
	first := n.Links()
	if len(first) != 2 || first[0] != ab || first[1] != ba {
		t.Fatalf("Links() = %v, want a->b then b->a", first)
	}
	if again := n.Links(); &again[0] != &first[0] {
		t.Fatal("Links() rebuilt its slice with no Connect in between")
	}
	if allocs := testing.AllocsPerRun(10, func() { n.Links() }); allocs != 0 {
		t.Fatalf("Links() allocated %.0f times per call", allocs)
	}
	bc, cb := n.Connect(b, c, 1_000_000, 0, 1<<20)
	// Nodes by ID, each node's out-links in registration order.
	want := []*Link{ab, ba, bc, cb}
	got := n.Links()
	if len(got) != len(want) {
		t.Fatalf("Links() after Connect has %d links, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Links()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// graphShape builds one small topology and returns every address it
// issued with the node that owns it.
type graphShape struct {
	name  string
	build func(n *Network) map[packet.Addr]NodeID
}

// host adds a host and records its address.
func host(n *Network, addrs map[packet.Addr]NodeID) *Host {
	h := n.AddHost("h")
	addrs[h.Addr()] = h.ID()
	return h
}

// router adds a router with an address and records it.
func router(n *Network, addrs map[packet.Addr]NodeID) *fwd {
	r := addFwd(n, "r")
	addrs[n.AssignAddr(r)] = r.ID()
	return r
}

var graphShapes = []graphShape{
	{"dumbbell", func(n *Network) map[packet.Addr]NodeID {
		addrs := map[packet.Addr]NodeID{}
		l, r := router(n, addrs), router(n, addrs)
		n.Connect(l, r, 1_000_000, sim.Millisecond, 1<<16)
		for i := 0; i < 3; i++ {
			n.Connect(host(n, addrs), l, 10_000_000, sim.Millisecond, 1<<16)
			n.Connect(r, host(n, addrs), 10_000_000, sim.Millisecond, 1<<16)
		}
		return addrs
	}},
	{"chain", func(n *Network) map[packet.Addr]NodeID {
		addrs := map[packet.Addr]NodeID{}
		var prev Node = host(n, addrs)
		for i := 0; i < 4; i++ {
			r := router(n, addrs)
			n.Connect(prev, r, 1_000_000, sim.Millisecond, 1<<16)
			n.Connect(r, host(n, addrs), 10_000_000, sim.Millisecond, 1<<16)
			prev = r
		}
		return addrs
	}},
	{"star", func(n *Network) map[packet.Addr]NodeID {
		addrs := map[packet.Addr]NodeID{}
		hub := addFwd(n, "hub") // no address: addresses skip it
		n.Connect(host(n, addrs), hub, 10_000_000, sim.Millisecond, 1<<16)
		for i := 0; i < 5; i++ {
			leaf := addFwd(n, "leaf")
			n.Connect(hub, leaf, 1_000_000, sim.Millisecond, 1<<16)
			for j := 0; j < 2; j++ {
				n.Connect(leaf, host(n, addrs), 10_000_000, sim.Millisecond, 1<<16)
			}
		}
		return addrs
	}},
}

// LinkBetween answers from the out-link slices and each link's duplex
// partner; on every shape and every ordered node pair it must agree with a
// brute-force scan of Links(), nil for pairs with no link between them.
// HostByAddr must resolve every issued address to its owner and nothing
// either side of the issued range, and a pair may be connected only once.
func TestLinkBetweenMatchesLinks(t *testing.T) {
	for _, shape := range graphShapes {
		t.Run(shape.name, func(t *testing.T) {
			_, n := newNet()
			addrs := shape.build(n)
			for a := 0; a < n.NodeCount(); a++ {
				for b := 0; b < n.NodeCount(); b++ {
					var want *Link
					for _, l := range n.Links() {
						if l.From().ID() == NodeID(a) && l.To().ID() == NodeID(b) {
							want = l
						}
					}
					if got := n.LinkBetween(NodeID(a), NodeID(b)); got != want {
						t.Errorf("LinkBetween(%d, %d) = %v, want %v", a, b, got, want)
					}
				}
			}
			for a, want := range addrs {
				if id, ok := n.HostByAddr(a); !ok || id != want {
					t.Errorf("HostByAddr(%v) = %d, %v; want %d", a, id, ok, want)
				}
			}
			for _, a := range []packet.Addr{hostAddrBase - 1, hostAddrBase + packet.Addr(len(addrs))} {
				if id, ok := n.HostByAddr(a); ok {
					t.Errorf("HostByAddr(%v) = %d, want not found", a, id)
				}
			}
		})
	}

	_, n := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	n.Connect(a, b, 1_000_000, 0, 1<<16)
	for _, pair := range [][2]Node{{a, b}, {b, a}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a second Connect(%s, %s) did not panic", pair[0].Name(), pair[1].Name())
				}
			}()
			n.Connect(pair[0], pair[1], 1_000_000, 0, 1<<16)
		}()
	}
}
