package topo

import (
	"fmt"
	"strings"
	"testing"

	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/sim"
)

// describeShape attaches one source, five receivers (access delays 0,
// DefaultDelay and 30 ms, cycled) and two cohorts (DefaultDelay and
// 30 ms) in an interleaved order, then renders what the shape built:
// routers and hosts in ID order, each bottleneck, the RTT, where every
// receiver and cohort landed, Edges(), and every link with its queue.
//
// Two dumbbell behaviours are left unpinned on purpose: the queue of a
// non-default-delay access link (a dumbbell once sized it by that
// receiver's own RTT rather than the topology's), and the Edges() of a
// dumbbell with no exact receivers (which once listed `right` anyway).
// For a dumbbell, the queues of access links with a non-default delay are
// therefore printed as "-".
func describeShape(tp *Tree, dumbbell bool) string {
	var b strings.Builder
	tp.AttachSource("")
	type placed struct {
		kind string
		port Port
	}
	var ports []placed
	recv := func(d sim.Time) { ports = append(ports, placed{"rcv", tp.AttachReceiver("", d)}) }
	cohort := func(d sim.Time) { ports = append(ports, placed{"cohort", tp.AttachCohort("", d)}) }
	recv(0)
	recv(DefaultDelay)
	cohort(DefaultDelay)
	recv(30 * sim.Millisecond)
	cohort(30 * sim.Millisecond)
	recv(0)
	recv(DefaultDelay)
	tp.Finish()

	net := tp.Network()
	var routers, hosts []string
	for id := 0; id < net.NodeCount(); id++ {
		switch n := net.Node(netsim.NodeID(id)).(type) {
		case *mcast.Router:
			routers = append(routers, n.Name())
		case *netsim.Host:
			hosts = append(hosts, n.Name())
		}
	}
	fmt.Fprintf(&b, "routers %s\n", strings.Join(routers, " "))
	fmt.Fprintf(&b, "hosts %s\n", strings.Join(hosts, " "))
	fmt.Fprintf(&b, "rtt %v\n", tp.RTT())
	var bottlenecks []string
	for _, l := range tp.Bottlenecks() {
		bottlenecks = append(bottlenecks, l.String())
	}
	fmt.Fprintf(&b, "bottlenecks %s\n", strings.Join(bottlenecks, " "))
	for _, p := range ports {
		behind := p.port.Edge
		if p.kind == "cohort" {
			// A cohort's edge is private; report the shared router above it.
			for _, l := range net.Links() {
				if r, ok := l.From().(*mcast.Router); ok && l.To() == netsim.Node(p.port.Edge) {
					behind = r
				}
			}
		}
		fmt.Fprintf(&b, "%s %s behind %s edge %s\n", p.kind, p.port.Host.Name(), behind.Name(), p.port.Edge.Name())
	}
	var edges []string
	for _, e := range tp.Edges() {
		edges = append(edges, e.Name())
	}
	fmt.Fprintf(&b, "edges %s\n", strings.Join(edges, " "))
	for _, l := range net.Links() {
		q := "-"
		if !dumbbell || l.Rate != 10_000_000 || l.Delay == 10*sim.Millisecond {
			q = fmt.Sprint(l.Queue.CapBytes)
		}
		fmt.Fprintf(&b, "link %s rate=%d delay=%v cap=%s\n", l, l.Rate, l.Delay, q)
	}
	return b.String()
}

// TestTopologyShapesPinned pins the dumbbell, a three-hop chain and a
// three-spoke star as describeShape renders them. The values were
// recorded when each shape was still its own type.
func TestTopologyShapesPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		build    func() *Tree
		dumbbell bool
		want     string
	}{
		{"dumbbell", func() *Tree { return Dumbbell(PaperConfig(1_000_000, 1)) }, true, `routers left right cohort4-edge cohort6-edge
hosts src1 rcv2 rcv3 cohort4 rcv5 cohort6 rcv7 rcv8
rtt 0.080s
bottlenecks left->right
rcv rcv2 behind right edge right
rcv rcv3 behind right edge right
cohort cohort4 behind right edge cohort4-edge
rcv rcv5 behind right edge right
cohort cohort6 behind right edge cohort6-edge
rcv rcv7 behind right edge right
rcv rcv8 behind right edge right
edges right
link left->right rate=1000000 delay=0.020s cap=20000
link left->src1 rate=10000000 delay=0.010s cap=200000
link right->left rate=1000000 delay=0.020s cap=20000
link right->rcv2 rate=10000000 delay=0.000s cap=-
link right->rcv3 rate=10000000 delay=0.010s cap=200000
link right->cohort4-edge rate=10000000 delay=0.010s cap=200000
link right->rcv5 rate=10000000 delay=0.030s cap=-
link right->cohort6-edge rate=10000000 delay=0.030s cap=-
link right->rcv7 rate=10000000 delay=0.000s cap=-
link right->rcv8 rate=10000000 delay=0.010s cap=200000
link src1->left rate=10000000 delay=0.010s cap=200000
link rcv2->right rate=10000000 delay=0.000s cap=-
link rcv3->right rate=10000000 delay=0.010s cap=200000
link cohort4-edge->right rate=10000000 delay=0.010s cap=200000
link cohort4-edge->cohort4 rate=100000000000 delay=0.000s cap=1048576
link cohort4->cohort4-edge rate=100000000000 delay=0.000s cap=1048576
link rcv5->right rate=10000000 delay=0.030s cap=-
link cohort6-edge->right rate=10000000 delay=0.030s cap=-
link cohort6-edge->cohort6 rate=100000000000 delay=0.000s cap=1048576
link cohort6->cohort6-edge rate=100000000000 delay=0.000s cap=1048576
link rcv7->right rate=10000000 delay=0.000s cap=-
link rcv8->right rate=10000000 delay=0.010s cap=200000
`},
		{"chain", func() *Tree {
			return Chain(Config{Capacities: []int64{1_000_000, 500_000, 250_000}, Seed: 1})
		}, false, `routers r0 r1 r2 r3 cohort4-edge cohort6-edge
hosts src1 rcv2 rcv3 cohort4 rcv5 cohort6 rcv7 rcv8
rtt 0.160s
bottlenecks r0->r1 r1->r2 r2->r3
rcv rcv2 behind r3 edge r3
rcv rcv3 behind r3 edge r3
cohort cohort4 behind r3 edge cohort4-edge
rcv rcv5 behind r3 edge r3
cohort cohort6 behind r3 edge cohort6-edge
rcv rcv7 behind r3 edge r3
rcv rcv8 behind r3 edge r3
edges r3
link r0->r1 rate=1000000 delay=0.020s cap=40000
link r0->src1 rate=10000000 delay=0.010s cap=400000
link r1->r0 rate=1000000 delay=0.020s cap=40000
link r1->r2 rate=500000 delay=0.020s cap=20000
link r2->r1 rate=500000 delay=0.020s cap=20000
link r2->r3 rate=250000 delay=0.020s cap=10000
link r3->r2 rate=250000 delay=0.020s cap=10000
link r3->rcv2 rate=10000000 delay=0.000s cap=400000
link r3->rcv3 rate=10000000 delay=0.010s cap=400000
link r3->cohort4-edge rate=10000000 delay=0.010s cap=400000
link r3->rcv5 rate=10000000 delay=0.030s cap=400000
link r3->cohort6-edge rate=10000000 delay=0.030s cap=400000
link r3->rcv7 rate=10000000 delay=0.000s cap=400000
link r3->rcv8 rate=10000000 delay=0.010s cap=400000
link src1->r0 rate=10000000 delay=0.010s cap=400000
link rcv2->r3 rate=10000000 delay=0.000s cap=400000
link rcv3->r3 rate=10000000 delay=0.010s cap=400000
link cohort4-edge->r3 rate=10000000 delay=0.010s cap=400000
link cohort4-edge->cohort4 rate=100000000000 delay=0.000s cap=1048576
link cohort4->cohort4-edge rate=100000000000 delay=0.000s cap=1048576
link rcv5->r3 rate=10000000 delay=0.030s cap=400000
link cohort6-edge->r3 rate=10000000 delay=0.030s cap=400000
link cohort6-edge->cohort6 rate=100000000000 delay=0.000s cap=1048576
link cohort6->cohort6-edge rate=100000000000 delay=0.000s cap=1048576
link rcv7->r3 rate=10000000 delay=0.000s cap=400000
link rcv8->r3 rate=10000000 delay=0.010s cap=400000
`},
		{"star", func() *Tree {
			return Star(Config{Capacities: []int64{600_000, 150_000, 150_000}, Seed: 1})
		}, false, `routers hub edge0 edge1 edge2 cohort4-edge cohort6-edge
hosts src1 rcv2 rcv3 cohort4 rcv5 cohort6 rcv7 rcv8
rtt 0.080s
bottlenecks hub->edge0 hub->edge1 hub->edge2
rcv rcv2 behind edge0 edge edge0
rcv rcv3 behind edge1 edge edge1
cohort cohort4 behind edge2 edge cohort4-edge
rcv rcv5 behind edge0 edge edge0
cohort cohort6 behind edge1 edge cohort6-edge
rcv rcv7 behind edge2 edge edge2
rcv rcv8 behind edge0 edge edge0
edges edge0 edge1 edge2
link hub->edge0 rate=600000 delay=0.020s cap=12000
link hub->edge1 rate=150000 delay=0.020s cap=3000
link hub->edge2 rate=150000 delay=0.020s cap=3000
link hub->src1 rate=10000000 delay=0.010s cap=200000
link edge0->hub rate=600000 delay=0.020s cap=12000
link edge0->rcv2 rate=10000000 delay=0.000s cap=200000
link edge0->rcv5 rate=10000000 delay=0.030s cap=200000
link edge0->rcv8 rate=10000000 delay=0.010s cap=200000
link edge1->hub rate=150000 delay=0.020s cap=3000
link edge1->rcv3 rate=10000000 delay=0.010s cap=200000
link edge1->cohort6-edge rate=10000000 delay=0.030s cap=200000
link edge2->hub rate=150000 delay=0.020s cap=3000
link edge2->cohort4-edge rate=10000000 delay=0.010s cap=200000
link edge2->rcv7 rate=10000000 delay=0.000s cap=200000
link src1->hub rate=10000000 delay=0.010s cap=200000
link rcv2->edge0 rate=10000000 delay=0.000s cap=200000
link rcv3->edge1 rate=10000000 delay=0.010s cap=200000
link cohort4-edge->edge2 rate=10000000 delay=0.010s cap=200000
link cohort4-edge->cohort4 rate=100000000000 delay=0.000s cap=1048576
link cohort4->cohort4-edge rate=100000000000 delay=0.000s cap=1048576
link rcv5->edge0 rate=10000000 delay=0.030s cap=200000
link cohort6-edge->edge1 rate=10000000 delay=0.030s cap=200000
link cohort6-edge->cohort6 rate=100000000000 delay=0.000s cap=1048576
link cohort6->cohort6-edge rate=100000000000 delay=0.000s cap=1048576
link rcv7->edge2 rate=10000000 delay=0.000s cap=200000
link rcv8->edge0 rate=10000000 delay=0.010s cap=200000
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := describeShape(tc.build(), tc.dumbbell); got != tc.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
