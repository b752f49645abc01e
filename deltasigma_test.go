package deltasigma_test

import (
	"slices"
	"strings"
	"testing"

	"deltasigma"
	"deltasigma/internal/packet"
)

func TestProtocolRegistryNames(t *testing.T) {
	type caps [4]bool // attacker, cohorts, feedback, edge agent
	want := map[string]struct {
		protected bool
		slot      deltasigma.Time
		caps      caps
	}{
		"flid-dl":            {false, 500 * deltasigma.Millisecond, caps{true, true, false, false}},
		"flid-ds":            {true, 250 * deltasigma.Millisecond, caps{true, true, false, false}},
		"flid-ds-replicated": {true, 250 * deltasigma.Millisecond, caps{true, false, false, false}},
		"flid-ds-threshold":  {true, 250 * deltasigma.Millisecond, caps{true, true, false, false}},
		"mfcc":               {false, 500 * deltasigma.Millisecond, caps{true, false, false, true}},
		"dsc":                {false, 500 * deltasigma.Millisecond, caps{true, true, true, false}},
		"abr-cf":             {false, 500 * deltasigma.Millisecond, caps{false, false, true, false}},
	}
	// The registry order is the shoot-out's protocol axis order, which its
	// golden pins; no two rows may share a name.
	got := deltasigma.Protocols()
	order := []string{"abr-cf", "dsc", "flid-dl", "flid-ds", "flid-ds-replicated", "flid-ds-threshold", "mfcc"}
	if !slices.Equal(got, order) {
		t.Fatalf("deltasigma.Protocols() = %v, want %v", got, order)
	}
	seen := map[string]bool{}
	for _, name := range got {
		if seen[name] {
			t.Fatalf("protocol %q registered twice", name)
		}
		seen[name] = true
	}
	for name, w := range want {
		p, ok := deltasigma.LookupProtocol(name)
		if !ok {
			t.Fatalf("protocol %q not registered (have %v)", name, got)
		}
		if p.Name != name {
			t.Fatalf("protocol %q reports name %q", name, p.Name)
		}
		if p.Protected != w.protected {
			t.Fatalf("protocol %q: Protected = %v, want %v", name, p.Protected, w.protected)
		}
		if p.Slot != w.slot {
			t.Errorf("protocol %q: default slot = %v, want %v", name, p.Slot, w.slot)
		}
		if slot := deltasigma.MustNew(deltasigma.WithProtocol(name)).Slot(); slot != w.slot {
			t.Errorf("protocol %q: experiment slot = %v, want %v", name, slot, w.slot)
		}
		if got := (caps{deltasigma.ProtocolHasAttacker(name), p.Cohorts, p.Feedback, p.EdgeAgent != nil}); got != w.caps {
			t.Errorf("protocol %q: capabilities (attacker, cohorts, feedback, edge agent) = %v, want %v", name, got, w.caps)
		}
		// AddCohort honours the declaration.
		s := deltasigma.MustNew(deltasigma.WithProtocol(name)).AddSession(0)
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			s.AddCohort(10)
			return false
		}()
		if panicked == p.Cohorts {
			t.Errorf("protocol %q: AddCohort panicked=%v with Cohorts=%v", name, panicked, p.Cohorts)
		}
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := deltasigma.New(deltasigma.WithProtocol("no-such-protocol")); err == nil {
		t.Fatal("unknown protocol accepted")
	} else if !strings.Contains(err.Error(), "no-such-protocol") {
		t.Fatalf("error does not name the protocol: %v", err)
	}
	if _, err := deltasigma.New(deltasigma.WithSlot(-deltasigma.Second)); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := deltasigma.New(deltasigma.WithECN(1.5)); err == nil {
		t.Fatal("out-of-range ECN fraction accepted")
	}
	if _, err := deltasigma.New(deltasigma.WithPacketSize(0)); err == nil {
		t.Fatal("zero packet size accepted")
	}
	if _, err := deltasigma.New(deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 300})); err == nil {
		t.Fatal("invalid schedule accepted (must error, not panic)")
	}
	// A group may send at most 65535 packets a slot, the most a FLID header
	// counts: the bound depends on the slot, and a 200-group schedule is
	// refused before any rate overflows.
	for _, opts := range [][]deltasigma.Option{
		{deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 30})},
		{deltasigma.WithSlot(1000 * deltasigma.Second)},
		{deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 200})},
	} {
		if _, err := deltasigma.New(opts...); err == nil || !strings.Contains(err.Error(), "65535") {
			t.Errorf("schedule past 65535 packets a slot: error %v, want one naming the limit", err)
		}
	}
	// Every TopologySpec.Check rule refuses its spec through New, with an
	// error naming the rule, instead of panicking in the tree builder.
	for _, c := range []struct {
		rule string
		spec deltasigma.TopologySpec
	}{
		{"unknown topology kind", deltasigma.TopologySpec{Kind: "ring", CapacitiesBps: []int64{1_000_000}}},
		{"exactly one capacity", deltasigma.TopologySpec{Kind: "dumbbell", CapacitiesBps: []int64{1_000_000, 500_000}}},
		{"at least one capacity", deltasigma.TopologySpec{Kind: "chain"}},
		{"must be positive", deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{600_000, -1}}},
		{"hop delay", deltasigma.TopologySpec{Kind: "chain", CapacitiesBps: []int64{1_000_000}, HopDelay: -deltasigma.Millisecond}},
	} {
		if _, err := deltasigma.New(deltasigma.WithTopology(c.spec)); err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("WithTopology(%+v): error %v, want one naming %q", c.spec, err, c.rule)
		}
	}
	if _, err := deltasigma.New(deltasigma.WithDumbbell(0)); err == nil {
		t.Fatal("zero dumbbell capacity accepted (must error, not panic)")
	}
	if _, err := deltasigma.New(deltasigma.WithAudit(deltasigma.AuditEvery(0))); err == nil {
		t.Fatal("zero audit interval accepted (must error, not panic)")
	}
	// A protocol row missing a field New needs is refused by name, not
	// left to panic once the run starts (a zero slot divides by zero).
	valid, _ := deltasigma.LookupProtocol("flid-ds")
	for _, c := range []struct {
		field string
		edit  func(p *deltasigma.Protocol)
	}{
		{"Name", func(p *deltasigma.Protocol) { p.Name = "" }},
		{"Sender", func(p *deltasigma.Protocol) { p.Sender = nil }},
		{"Receiver", func(p *deltasigma.Protocol) { p.Receiver = nil }},
		{"Slot", func(p *deltasigma.Protocol) { p.Slot = 0 }},
		{"Slot", func(p *deltasigma.Protocol) { p.Slot = -deltasigma.Second }},
	} {
		p := valid
		c.edit(&p)
		if _, err := deltasigma.New(deltasigma.WithProtocolImpl(p)); err == nil {
			t.Errorf("protocol with bad %s accepted", c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("bad %s: error does not name the field: %v", c.field, err)
		}
	}
	if _, err := deltasigma.New(deltasigma.WithProtocolImpl(valid)); err != nil {
		t.Fatalf("registered protocol rejected through WithProtocolImpl: %v", err)
	}
	// Every timeline value rule refuses its event through New, with an
	// error naming the event, instead of panicking at Start.
	const sec = deltasigma.Second
	for _, c := range []struct {
		event string
		ev    deltasigma.TimelineEvent
	}{
		{"PoissonChurn", deltasigma.PoissonChurn{Session: 1, Rate: 0, To: 5 * sec}},
		{"PoissonChurn", deltasigma.PoissonChurn{Session: 1, Rate: 1, From: 5 * sec, To: 5 * sec}},
		{"LinkSetCapacity", deltasigma.LinkSetCapacity{At: sec, Bps: 0}},
		{"LinkSetDelay", deltasigma.LinkSetDelay{At: sec, Delay: -deltasigma.Millisecond}},
		{"LinkFlap", deltasigma.LinkFlap{Period: 9, To: 5 * sec}},
		{"LinkFlap", deltasigma.LinkFlap{Period: deltasigma.Millisecond / 1000, To: 100 * sec}},
		{"LinkFlap", deltasigma.LinkFlap{Period: 2 * sec, From: 6 * sec, To: 5 * sec}},
		{"WithTimeline(nil event)", nil},
	} {
		if _, err := deltasigma.New(deltasigma.WithTimeline(c.ev)); err == nil || !strings.Contains(err.Error(), c.event) {
			t.Errorf("WithTimeline(%+v): error %v, want one naming %s", c.ev, err, c.event)
		}
	}
}

// protocolOptions returns per-variant extra options for the cross-protocol
// tests. A replicated sender transmits every group at its cumulative rate,
// so the paper's 10-group schedule (≈11.3 Mbps summed) would overflow the
// 10 Mbps access links; the variant gets the 6-group schedule its demo
// uses (≈2.1 Mbps summed).
func protocolOptions(name string) []deltasigma.Option {
	if name == "flid-ds-replicated" {
		return []deltasigma.Option{deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 6})}
	}
	return nil
}

// Per-protocol convergence, topology coverage, cross-traffic sharing,
// drain-and-audit, determinism and attacker availability all live in the
// registry-driven conformance suite: see TestProtocolConformance in
// conformance_test.go.

// TestAttackSuppressedUnderEveryProtectedVariant is the regression the
// paper is about: under every protected protocol the inflated-subscription
// attacker gains nothing and the victim session survives.
func TestAttackSuppressedUnderEveryProtectedVariant(t *testing.T) {
	for _, name := range deltasigma.Protocols() {
		p, _ := deltasigma.LookupProtocol(name)
		if !p.Protected {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			opts := append([]deltasigma.Option{deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(8),
				deltasigma.WithTimeline(deltasigma.AttackerOnset{At: 20 * deltasigma.Second, Session: 1})},
				protocolOptions(name)...)
			exp := deltasigma.MustNew(opts...)
			atk := exp.AddSession(0).AddAttacker()
			victim := exp.AddSession(1).Receivers[0]
			exp.Run(50 * deltasigma.Second)

			if rate := atk.Meter().AvgKbps(35*deltasigma.Second, 50*deltasigma.Second); rate > 400 {
				t.Fatalf("%s: attacker at %.0f Kbps exceeds any fair reading of 250 Kbps", name, rate)
			}
			if rate := victim.Meter().AvgKbps(35*deltasigma.Second, 50*deltasigma.Second); rate < 80 {
				t.Fatalf("%s: victim starved at %.0f Kbps", name, rate)
			}
			drainAndVerify(t, exp)
		})
	}
}

// TestBaselineAttackSucceeds pins the other half of the contrast: under
// plain FLID-DL the same attack does profit.
func TestBaselineAttackSucceeds(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol("flid-dl"), deltasigma.WithSeed(8),
		deltasigma.WithTimeline(deltasigma.AttackerOnset{At: 20 * deltasigma.Second, Session: 1}))
	atk := exp.AddSession(0).AddAttacker()
	victim := exp.AddSession(1).Receivers[0]
	exp.Run(50 * deltasigma.Second)
	atkRate := atk.Meter().AvgKbps(35*deltasigma.Second, 50*deltasigma.Second)
	victimRate := victim.Meter().AvgKbps(35*deltasigma.Second, 50*deltasigma.Second)
	if atkRate < 2*victimRate {
		t.Fatalf("baseline attack ineffective: %.0f vs %.0f Kbps", atkRate, victimRate)
	}
	drainAndVerify(t, exp)
}

// TestChainTopology runs flid-ds on a two-bottleneck chain: a receiver
// behind the 250 Kbps second hop is pinned near the fair level for that
// link while a receiver behind only the 1 Mbps first hop climbs higher.
func TestChainTopology(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "chain", CapacitiesBps: []int64{1_000_000, 250_000}}),
		deltasigma.WithProtocol("flid-ds"), deltasigma.WithSeed(9))
	chain := exp.Topo
	sess := exp.AddSession(1) // default egress: far end, behind both hops
	far := sess.Receivers[0]
	near := sess.AddReceiverAt(chain.AttachReceiverAt(1, "near", 0))
	res := exp.Run(60 * deltasigma.Second)

	if lvl := far.Level(); lvl < 2 || lvl > 4 {
		t.Fatalf("far receiver at level %d, want near the 250 Kbps fair level 3", lvl)
	}
	if near.Level() <= far.Level() {
		t.Fatalf("near receiver (1 Mbps hop) at level %d, not above far receiver's %d",
			near.Level(), far.Level())
	}
	if len(res.Bottlenecks) != 2 {
		t.Fatalf("want 2 bottleneck entries, got %d", len(res.Bottlenecks))
	}
	drainAndVerify(t, exp)
}

// TestStarPerEdgeGatekeepers proves the star: receivers of one session
// behind spokes of different capacity converge to different levels, each
// enforced by its own SIGMA edge.
func TestStarPerEdgeGatekeepers(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{600_000, 150_000}}),
		deltasigma.WithProtocol("flid-ds"), deltasigma.WithSeed(10))
	sess := exp.AddSession(2) // round-robin: R1 on the 600k spoke, R2 on the 150k spoke
	fast, slow := sess.Receivers[0], sess.Receivers[1]
	exp.Run(60 * deltasigma.Second)

	if slow.Level() > 3 {
		t.Fatalf("slow-spoke receiver at level %d despite a 150 Kbps bottleneck", slow.Level())
	}
	if fast.Level() <= slow.Level() {
		t.Fatalf("fast-spoke receiver at level %d, not above slow spoke's %d",
			fast.Level(), slow.Level())
	}
	if fast.Meter().AvgKbps(30*deltasigma.Second, 60*deltasigma.Second) <= slow.Meter().AvgKbps(30*deltasigma.Second, 60*deltasigma.Second) {
		t.Fatal("fast spoke did not outpace slow spoke")
	}
	drainAndVerify(t, exp)
}

// TestCrossTrafficOptions runs a protected session against a TCP Reno flow
// and on-off CBR through the facade and checks everyone gets a share.
func TestCrossTrafficOptions(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithDumbbell(750_000), deltasigma.WithProtocol("flid-ds"), deltasigma.WithSeed(11))
	r := exp.AddSession(1).Receivers[0]
	tcpFlow := exp.AddTCP(0)
	exp.AddCBR(75_000, 5*deltasigma.Second, 5*deltasigma.Second)
	res := exp.Run(60 * deltasigma.Second)

	if avg := r.Meter().AvgKbps(30*deltasigma.Second, 60*deltasigma.Second); avg < 80 {
		t.Fatalf("multicast receiver starved at %.0f Kbps", avg)
	}
	if avg := tcpFlow.Meter().AvgKbps(30*deltasigma.Second, 60*deltasigma.Second); avg < 50 {
		t.Fatalf("TCP flow starved at %.0f Kbps", avg)
	}
	if len(res.Cross) != 2 {
		t.Fatalf("want 2 cross-traffic entries, got %d", len(res.Cross))
	}
	for _, c := range res.Cross {
		if c.AvgKbps <= 0 {
			t.Fatalf("cross flow %s delivered nothing", c.Label)
		}
	}
	drainAndVerify(t, exp)
}

// TestRunAutoStartsAndResult checks the satellite fixes: Run without an
// explicit Start no longer hangs silently, Start stays idempotent, and the
// typed Result carries coherent data.
func TestRunAutoStartsAndResult(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithDumbbell(250_000), deltasigma.WithSeed(12))
	exp.AddSession(1)
	res := exp.Run(30 * deltasigma.Second) // no Start() — must auto-start
	exp.Start()                            // idempotent after the fact

	if res.Protocol != "flid-ds" {
		t.Fatalf("result protocol %q", res.Protocol)
	}
	if res.Seconds != 30 {
		t.Fatalf("result seconds %.1f", res.Seconds)
	}
	rr := res.Receiver(1, 1)
	if rr == nil {
		t.Fatal("receiver S1R1 missing from result")
	}
	if rr.Label != "S1R1" || rr.Attacker {
		t.Fatalf("receiver entry %+v mislabelled", rr)
	}
	if rr.AvgKbps <= 0 || len(rr.Series) == 0 {
		t.Fatalf("receiver result empty: %+v", rr)
	}
	if len(res.Bottlenecks) != 1 || res.Bottlenecks[0].CapacityBps != 250_000 {
		t.Fatalf("bottleneck entries wrong: %+v", res.Bottlenecks)
	}
	if u := res.Utilization(); u <= 0 || u > 1.05 {
		t.Fatalf("utilization %.2f out of range", u)
	}

	// A Run into the past must not rewind the clock or skew the snapshot.
	stale := exp.Run(5 * deltasigma.Second)
	if stale.Seconds != 30 || exp.Now() != 30*deltasigma.Second {
		t.Fatalf("Run into the past rewound: seconds=%.0f now=%v", stale.Seconds, exp.Now())
	}
	if u := stale.Utilization(); u > 1.05 {
		t.Fatalf("stale-until snapshot inflated utilization to %.2f", u)
	}
	drainAndVerify(t, exp)
}

// TestECNOption checks WithECN wires marking and edge scrubbing end to
// end: the queue marks, the receiver still converges, losses stay rare.
func TestECNOption(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithDumbbell(250_000), deltasigma.WithECN(0.4), deltasigma.WithSeed(21))
	r := exp.AddSession(1).Receivers[0]
	res := exp.Run(40 * deltasigma.Second)
	if res.Bottlenecks[0].Marked == 0 {
		t.Fatal("ECN enabled but nothing was marked")
	}
	if r.Level() < 2 {
		t.Fatalf("receiver stuck at level %d under ECN", r.Level())
	}
	drainAndVerify(t, exp)
}

// TestWideScheduleSessionsDontOverlap pins the session address-block
// sizing: schedules wider than the minimum spacing must still get
// disjoint group blocks.
func TestWideScheduleSessionsDontOverlap(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithDumbbell(500_000),
		deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 10_000, Mult: 1.05, N: 40}),
		deltasigma.WithSeed(14),
	)
	s1 := exp.AddSession(0)
	s2 := exp.AddSession(0)
	if top, next := s1.Sess.GroupAddr(40), s2.Sess.GroupAddr(1); top >= next {
		t.Fatalf("session blocks overlap: S1 group 40 at %v, S2 group 1 at %v", top, next)
	}
}

// TestSessionBlocksStartAtMulticastBase pins session numbering: IDs count
// from 1, and session n's group block starts n−1 blocks above the first
// multicast address, so no offset of the group tables goes unused.
func TestSessionBlocksStartAtMulticastBase(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithSeed(14))
	s1, s2 := exp.AddSession(0), exp.AddSession(0)
	if s1.Sess.ID != 1 || s1.Sess.BaseAddr != packet.MulticastBase {
		t.Fatalf("first session: ID %d at %v, want 1 at %v", s1.Sess.ID, s1.Sess.BaseAddr, packet.MulticastBase)
	}
	if s2.Sess.ID != 2 || s2.Sess.BaseAddr != packet.MulticastBase+32 {
		t.Fatalf("second session: ID %d at %v, want 2 at %v", s2.Sess.ID, s2.Sess.BaseAddr, packet.MulticastBase+32)
	}
}

// TestAddSessionRefusesIDWrap pins the session cap: IDs are 16-bit, so
// the session after ID 65535 panics instead of wrapping to ID 0.
func TestAddSessionRefusesIDWrap(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithSeed(14))
	exp.SetNextSessionID(65535)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "at most 65535 sessions") {
			t.Fatalf("AddSession past ID 65535: recovered %q, want a panic naming the limit", msg)
		}
	}()
	exp.AddSession(0)
}

// TestAddAfterStartPanics pins the wiring guard: agents added after the
// experiment has started would silently never run, so the facade refuses.
func TestAddAfterStartPanics(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithDumbbell(250_000), deltasigma.WithSeed(15))
	exp.AddSession(1)
	exp.Advance(1 * deltasigma.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("AddSession after start must panic, not silently no-op")
		}
	}()
	exp.AddSession(1)
}

func TestFacadePaperSchedule(t *testing.T) {
	rs := deltasigma.PaperSchedule()
	if rs.N != 10 || rs.Base != 100_000 {
		t.Fatalf("unexpected schedule %+v", rs)
	}
}

// TestAttackerLabelAndUnwrap pins the receiver bookkeeping the results
// depend on.
func TestAttackerLabelAndUnwrap(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithDumbbell(250_000), deltasigma.WithSeed(13))
	s := exp.AddSession(1)
	atk := s.AddAttacker()
	if !atk.Attacker() || atk.Label() != "S1R2(attacker)" {
		t.Fatalf("attacker mislabelled: %q attacker=%v", atk.Label(), atk.Attacker())
	}
	if s.Receivers[0].Attacker() {
		t.Fatal("well-behaved receiver flagged as attacker")
	}
	if atk.Unwrap() == nil {
		t.Fatal("Unwrap returned nil")
	}
}
