package invariant

import (
	"encoding/json"
	"strings"
	"testing"

	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// testNet builds a two-host network with one middle link pair and returns
// the forward link.
func testNet(t *testing.T, qBytes int) (*netsim.Network, *netsim.Host, *netsim.Host, *netsim.Link) {
	t.Helper()
	sched := sim.NewScheduler()
	n := netsim.New(sched, sim.NewRNG(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	fwd, _ := n.Connect(a, b, 1_000_000, 10*sim.Millisecond, qBytes)
	n.ComputeRoutes()
	return n, a, b, fwd
}

func send(n *netsim.Network, a, b *netsim.Host, size int) {
	n.Scheduler().Schedule(n.Scheduler().Now(), func() {
		a.Send(n.NewPacket(a.Addr(), b.Addr(), size, nil))
	})
}

// A clean run satisfies every link law, both mid-run and after drain.
func TestCleanLinkPassesAllChecks(t *testing.T) {
	n, a, b, fwd := testNet(t, 2000)
	for i := 0; i < 50; i++ {
		send(n, a, b, 576)
	}
	n.Scheduler().RunUntil(100 * sim.Millisecond)

	var aud Auditor
	aud.CheckLink(n.Scheduler().Now(), fwd)
	aud.CheckLinkDrained(n.Scheduler().Now(), fwd)
	aud.CheckPoolBalance(n.Scheduler().Now(), n.Pool(), 0)
	if !aud.Ok() {
		t.Fatalf("clean run reported violations: %v", aud.Err())
	}
	if fwd.Queue.Dropped == 0 {
		t.Fatal("test burst did not overflow the queue — drop accounting untested")
	}
}

// A sampled audit walks every link at every sample; on a healthy network
// that walk must cost no allocation — the link's label and the diagnostic
// are built only when a law is broken.
func TestSamplingHealthyLinksAllocatesNothing(t *testing.T) {
	n, a, b, _ := testNet(t, 1<<20)
	for i := 0; i < 20; i++ {
		send(n, a, b, 576)
	}
	n.Scheduler().RunUntil(30 * sim.Millisecond) // packets queued, serializing and in flight

	var aud Auditor
	now := n.Scheduler().Now()
	allocs := testing.AllocsPerRun(100, func() {
		for _, l := range n.Links() {
			aud.CheckLink(now, l)
		}
	})
	if allocs != 0 || !aud.Ok() {
		t.Fatalf("one audit sample over healthy links allocated %.0f times (violations: %v)", allocs, aud.Err())
	}
}

// Mid-run, with packets still queued and in flight, conservation must hold
// with the in-transit terms.
func TestConservationHoldsMidRun(t *testing.T) {
	n, a, b, fwd := testNet(t, 1<<20)
	for i := 0; i < 20; i++ {
		send(n, a, b, 576)
	}
	// Stop mid-flight: some packets queued, one serializing, some propagating.
	n.Scheduler().RunUntil(3 * sim.Millisecond)
	if fwd.Queue.Len() == 0 && fwd.InFlight() == 0 && !fwd.Serializing() {
		t.Fatal("nothing in transit — mid-run check is vacuous")
	}
	var aud Auditor
	aud.CheckLink(n.Scheduler().Now(), fwd)
	if !aud.Ok() {
		t.Fatalf("mid-run conservation violated: %v", aud.Err())
	}
}

// Regression for the acceptance criterion: an intentionally injected
// accounting bug — a drop that forgets its bookkeeping, here simulated by
// un-counting a delivery — must be caught by the conservation law.
func TestInjectedAccountingBugIsCaught(t *testing.T) {
	n, a, b, fwd := testNet(t, 1<<20)
	for i := 0; i < 10; i++ {
		send(n, a, b, 576)
	}
	n.Scheduler().RunUntil(sim.Second)

	fwd.Delivered-- // the injected bug: one delivery vanishes from the books

	var aud Auditor
	aud.CheckLink(n.Scheduler().Now(), fwd)
	if aud.Ok() {
		t.Fatal("injected conservation bug went undetected")
	}
	if aud.Violations()[0].Rule != RuleLinkConservation {
		t.Fatalf("wrong rule: %v", aud.Violations()[0])
	}
}

// A leaked pool reference (the skip-a-Release-on-drop class of bug) trips
// pool balance.
func TestLeakedReferenceIsCaught(t *testing.T) {
	pool := &packet.Pool{}
	p := pool.Get(1, 2, 100, nil)
	q := pool.Get(1, 2, 100, nil)
	p.Release()
	_ = q // q is never released: the injected leak

	var aud Auditor
	aud.CheckPoolBalance(sim.Second, pool, 0)
	if aud.Ok() {
		t.Fatal("leaked reference went undetected")
	}
	v := aud.Violations()[0]
	if v.Rule != RulePoolBalance || v.Got != 1 {
		t.Fatalf("wrong diagnostic: %v", v)
	}
}

// Pool balance is measured against a baseline, so an experiment sharing a
// pool with an earlier leaky one is not blamed for inherited imbalance.
func TestPoolBalanceBaseline(t *testing.T) {
	pool := &packet.Pool{}
	pool.Get(1, 2, 100, nil) // inherited leak from a previous run
	base := pool.Outstanding()

	p := pool.Get(1, 2, 100, nil)
	p.Release()
	var aud Auditor
	aud.CheckPoolBalance(0, pool, base)
	if !aud.Ok() {
		t.Fatalf("baseline not honored: %v", aud.Err())
	}
}

func TestQueueOccupancyViolation(t *testing.T) {
	_, _, _, fwd := testNet(t, 1000)
	fwd.Queue.MaxFilled = 2000 // injected: high-water mark above capacity
	var aud Auditor
	aud.CheckLink(0, fwd)
	found := false
	for _, v := range aud.Violations() {
		if v.Rule == RuleQueueOccupancy {
			found = true
		}
	}
	if !found {
		t.Fatalf("occupancy breach undetected: %v", aud.Violations())
	}
}

func TestUtilizationBoundViolation(t *testing.T) {
	n, a, b, fwd := testNet(t, 1<<20)
	for i := 0; i < 5; i++ {
		send(n, a, b, 576)
	}
	n.Scheduler().RunUntil(sim.Second)
	fwd.SentBytes += 10_000_000 // injected: bits from nowhere
	var aud Auditor
	aud.CheckLink(n.Scheduler().Now(), fwd)
	found := false
	for _, v := range aud.Violations() {
		if v.Rule == RuleUtilizationBound {
			found = true
		}
	}
	if !found {
		t.Fatalf("utilization breach undetected: %v", aud.Violations())
	}
}

func TestMonotonicTime(t *testing.T) {
	var aud Auditor
	last := sim.Time(0)
	aud.CheckMonotonicTime(&last, 5*sim.Second)
	aud.CheckMonotonicTime(&last, 5*sim.Second) // equal is fine
	if !aud.Ok() {
		t.Fatalf("monotonic samples flagged: %v", aud.Err())
	}
	aud.CheckMonotonicTime(&last, 4*sim.Second)
	if aud.Ok() {
		t.Fatal("clock rewind undetected")
	}
}

// Graft consistency: an IGMP member implies a fabric graft; forcing the two
// views apart must be detected.
func TestGraftConsistency(t *testing.T) {
	sched := sim.NewScheduler()
	n := netsim.New(sched, sim.NewRNG(1))
	fabric := mcast.NewFabric(n)
	left := mcast.NewRouter(n, fabric, "left")
	right := mcast.NewRouter(n, fabric, "right")
	n.Connect(left, right, 1_000_000, sim.Millisecond, 1<<20)
	src := n.AddHost("src")
	n.Connect(src, left, 10_000_000, sim.Millisecond, 1<<20)
	rcv := n.AddHost("rcv")
	n.Connect(rcv, right, 10_000_000, sim.Millisecond, 1<<20)
	right.AttachLocal(rcv)
	n.ComputeRoutes()

	group := packet.MulticastBase + 1
	fabric.SetSource(group, src.ID())
	igmp := mcast.NewIGMP(right)
	cli := mcast.NewClient(rcv, right.Addr())
	sched.Schedule(0, func() { cli.Join(group) })
	sched.RunUntil(100 * sim.Millisecond)

	if !igmp.Entitled(group, rcv.Addr()) {
		t.Fatal("receiver not entitled after join — setup broken")
	}
	edges := []*mcast.Router{right}
	groups := []packet.Addr{group}

	var aud Auditor
	aud.CheckGraftConsistency(sched.Now(), fabric, edges, groups)
	if !aud.Ok() {
		t.Fatalf("consistent state flagged: %v", aud.Err())
	}

	// Injected divergence: prune the fabric behind the gatekeeper's back.
	fabric.Prune(group, right.ID())
	aud = Auditor{}
	aud.CheckGraftConsistency(sched.Now(), fabric, edges, groups)
	if aud.Ok() {
		t.Fatal("entitlement without graft undetected")
	}
	if aud.Violations()[0].Rule != RuleGraftConsistency {
		t.Fatalf("wrong rule: %v", aud.Violations()[0])
	}
}

// Violations serialize to JSON (the fuzz repro files embed them) and the
// auditor caps storage while still counting.
func TestViolationSerializationAndLimit(t *testing.T) {
	aud := Auditor{Limit: 2}
	for i := 0; i < 5; i++ {
		aud.Reportf(RulePoolBalance, "s", sim.Second, 1, 0, "leak %d", i)
	}
	if len(aud.Violations()) != 2 || aud.Total != 5 {
		t.Fatalf("limit broken: recorded %d, total %d", len(aud.Violations()), aud.Total)
	}
	if err := aud.Err(); err == nil || !strings.Contains(err.Error(), "3 more not recorded") {
		t.Fatalf("Err missing overflow note: %v", err)
	}
	js, err := json.Marshal(aud.Violations())
	if err != nil {
		t.Fatal(err)
	}
	var back []Violation
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back[0] != aud.Violations()[0] {
		t.Fatalf("round trip changed the violation: %+v vs %+v", back[0], aud.Violations()[0])
	}
}
