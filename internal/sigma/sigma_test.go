package sigma

import (
	"testing"

	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

const (
	slotDur = 100 * sim.Millisecond
	grp     = packet.MulticastBase
	nGroups = 4
)

type rig struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	fabric *mcast.Fabric
	src    *netsim.Host
	edge   *mcast.Router
	ctl    *Controller
	h1, h2 *netsim.Host
	ann    *Announcer
	keySrc *keys.Source
	slots  map[uint32]*delta.LayeredSlot
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(42)
	net := netsim.New(sched, rng)
	fabric := mcast.NewFabric(net)
	r := &rig{sched: sched, net: net, fabric: fabric, slots: make(map[uint32]*delta.LayeredSlot)}

	r.src = net.AddHost("src")
	r.edge = mcast.NewRouter(net, fabric, "edge")
	r.h1 = net.AddHost("h1")
	r.h2 = net.AddHost("h2")

	const rate, q = 10_000_000, 1 << 20
	net.Connect(r.src, r.edge, rate, 2*sim.Millisecond, q)
	net.Connect(r.edge, r.h1, rate, 2*sim.Millisecond, q)
	net.Connect(r.edge, r.h2, rate, 2*sim.Millisecond, q)
	net.ComputeRoutes()

	r.edge.AttachLocal(r.h1)
	r.edge.AttachLocal(r.h2)
	r.ctl = NewController(r.edge, DefaultConfig(slotDur))

	for g := 0; g < nGroups; g++ {
		fabric.SetSource(packet.Group(grp, g), r.src.ID())
	}
	r.keySrc = keys.NewSource(keys.DefaultBits, rng.Fork().Uint64)
	r.ann = NewAnnouncer(r.src, 1, grp, 1, 2)
	return r
}

// beginSlot precomputes sender keys for slot s. A sender keeps one slot's
// state, and these tests keep several slots side by side, so each slot gets
// a sender of its own on the shared nonce stream.
func (r *rig) beginSlot(s uint32, auth []bool, counts []int) *delta.LayeredSlot {
	ls := delta.NewLayeredSender(nGroups, r.keySrc).BeginSlot(s, auth, counts)
	r.slots[s] = ls
	return ls
}

// makeSlot precomputes sender keys for slot s (no upgrades unless authTo>0)
// and announces them.
func (r *rig) makeSlot(s uint32, authTo int) *delta.LayeredSlot {
	auth := make([]bool, nGroups)
	for g := 2; g <= authTo; g++ {
		auth[g-1] = true
	}
	counts := make([]int, nGroups)
	for i := range counts {
		counts[i] = 2
	}
	ls := r.beginSlot(s, auth, counts)
	r.ann.Announce(s, ls.Keys.Tuples(grp))
	return ls
}

// sendData transmits the slot's scheduled packets for groups 1..upTo.
func (r *rig) sendData(s uint32, upTo int) {
	ls := r.slots[s]
	for g := 1; g <= upTo; g++ {
		for p := 1; p <= 2; p++ {
			comp, dec := ls.Fields(g)
			pkt := packet.New(r.src.Addr(), packet.Group(grp, g-1), 576, &packet.FLIDHeader{
				Session: 1, Group: uint8(g), Slot: s, Seq: uint16(p), Count: 2,
				HasDelta: true, Component: comp, Decrease: dec,
			})
			pkt.UID = r.net.NewUID()
			r.src.Send(pkt)
		}
	}
}

func flidCounter(h *netsim.Host) *int {
	n := new(int)
	h.Handle(packet.ProtoFLID, func(pkt *packet.Packet) { *n++ })
	return n
}

func TestAnnounceInterceptedAndStored(t *testing.T) {
	r := newRig(t)
	// Put the edge on the minimal group's tree via a session join.
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(grp) })
	r.sched.At(10*sim.Millisecond, func() { r.makeSlot(2, 0) })
	r.sched.RunUntil(50 * sim.Millisecond)

	if !r.ctl.HasKeysFor(grp, 2) {
		t.Fatal("controller did not store announced keys")
	}
	if !r.ctl.HasKeysFor(grp+3, 2) {
		t.Fatal("tuples for higher groups missing")
	}
	// Repetition copies dedup: two packets sent, one logical announce.
	if r.ctl.AnnouncesIntercepted != 1 {
		t.Fatalf("intercepted %d logical announces, want 1", r.ctl.AnnouncesIntercepted)
	}
	if r.ann.PacketsSent != 2 {
		t.Fatalf("announcer sent %d packets, want z=2", r.ann.PacketsSent)
	}
}

// TestAnnounceSurvivesLossOfOneCopy loses copies of the announcer's z = 2
// repetition code on the source's uplink: either copy alone delivers the
// slot's keys, and losing both leaves the edge without them.
func TestAnnounceSurvivesLossOfOneCopy(t *testing.T) {
	// Copy i leaves at 10 ms + i·spacing; the uplink is down over
	// [down, up), which discards every copy sent inside it.
	const spacing = 5 * sim.Millisecond
	cases := []struct {
		name     string
		down, up sim.Time
		lost     uint64
		want     bool
	}{
		{"only-copy-0-arrives", 14 * sim.Millisecond, 16 * sim.Millisecond, 1, true},
		{"only-copy-1-arrives", 9 * sim.Millisecond, 11 * sim.Millisecond, 1, true},
		{"no-copy-arrives", 9 * sim.Millisecond, 16 * sim.Millisecond, 2, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			r.ann.Spacing = spacing
			uplink := r.net.LinkBetween(r.src.ID(), r.edge.ID())
			cl := NewClient(r.h1, r.edge.Addr())
			r.sched.At(0, func() { cl.SessionJoin(grp) })
			r.sched.At(c.down, uplink.Down)
			r.sched.At(c.up, uplink.Up)
			r.sched.At(10*sim.Millisecond, func() { r.makeSlot(3, 0) })
			r.sched.RunUntil(50 * sim.Millisecond)
			if r.ann.PacketsSent != 2 {
				t.Fatalf("announcer sent %d copies, want z=2", r.ann.PacketsSent)
			}
			if uplink.DroppedDown != c.lost {
				t.Fatalf("uplink dropped %d copies, want %d", uplink.DroppedDown, c.lost)
			}
			if got := r.ctl.HasKeysFor(grp, 3); got != c.want {
				t.Fatalf("HasKeysFor = %v, want %v", got, c.want)
			}
		})
	}
}

func TestSessionJoinGrantsGraceThenPenalty(t *testing.T) {
	r := newRig(t)
	got := flidCounter(r.h1)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(grp) })

	// Data for the minimal group in every slot; the receiver never submits
	// a key.
	for s := uint32(0); s <= 6; s++ {
		s := s
		r.sched.At(sim.Time(s)*slotDur+30*sim.Millisecond, func() {
			r.makeSlot(s, 0)
			r.sendData(s, 1)
		})
	}
	r.sched.RunUntil(320 * sim.Millisecond)
	inGrace := *got
	if inGrace == 0 {
		t.Fatal("keyless new receiver should get the minimal group during grace")
	}
	r.sched.RunUntil(700 * sim.Millisecond)
	if *got != inGrace {
		t.Fatalf("keyless receiver still served after grace: %d -> %d", inGrace, *got)
	}
}

func TestValidKeyGrantsAccess(t *testing.T) {
	r := newRig(t)
	got := flidCounter(r.h1)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(grp) })
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	// Subscribe with the genuine top key for slot 5 of group 1.
	r.sched.At(20*sim.Millisecond, func() {
		cl.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: r.slots[5].Keys.Top[0]}})
	})
	// Send minimal-group data during slot 5 (t in [500,600) ms).
	r.sched.At(530*sim.Millisecond, func() { r.sendData(5, 1) })
	r.sched.RunUntil(620 * sim.Millisecond)
	if *got != 2 {
		t.Fatalf("granted receiver got %d packets, want 2", *got)
	}
	if r.ctl.GrantsIssued == 0 {
		t.Fatal("no grant recorded")
	}
}

func TestGrantIsSlotScoped(t *testing.T) {
	r := newRig(t)
	got := flidCounter(r.h1)
	cl := NewClient(r.h1, r.edge.Addr())
	// No session-join: straight to a keyed grant, no grace in the way.
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0); r.makeSlot(6, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		cl.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: r.slots[5].Keys.Top[0]}})
	})
	// The first packets ever delivered to this interface open the grace
	// window; burn it off during slots 0..4 with no traffic... grace opens
	// at first delivery, so instead verify: data in slot 5 delivered, data
	// in slot 8 (grace expired, no grant) blocked.
	r.sched.At(530*sim.Millisecond, func() { r.sendData(5, 1) })
	r.sched.RunUntil(620 * sim.Millisecond)
	inSlot5 := *got
	if inSlot5 != 2 {
		t.Fatalf("slot-5 delivery got %d, want 2", inSlot5)
	}
	r.sched.At(830*sim.Millisecond, func() { r.sendData(6, 1) }) // slot 8, grant only for 5
	r.sched.RunUntil(900 * sim.Millisecond)
	if *got != inSlot5 {
		t.Fatalf("packets delivered outside granted slot: %d -> %d", inSlot5, *got)
	}
}

func TestInvalidKeyDeniedAndTallied(t *testing.T) {
	r := newRig(t)
	got := flidCounter(r.h1)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		// Guess 20 distinct wrong keys for group 2.
		real := r.slots[5].Keys.Top[1]
		pairs := make([]packet.AddrKey, 0, 20)
		for i := 0; i < 20; i++ {
			k := keys.Key(i + 1)
			if k == real {
				k = keys.Key(40_000 + i)
			}
			pairs = append(pairs, packet.AddrKey{Addr: grp + 1, Key: k})
		}
		cl.Subscribe(5, pairs)
	})
	r.sched.At(530*sim.Millisecond, func() { r.sendData(5, 2) })
	r.sched.RunUntil(650 * sim.Millisecond)
	if *got != 0 {
		t.Fatalf("denied receiver got %d packets", *got)
	}
	if r.ctl.InvalidKeys != 20 {
		t.Fatalf("InvalidKeys = %d, want 20", r.ctl.InvalidKeys)
	}
}

func TestSubscriptionAckedAndRetransmitUntilAck(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		cl.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: r.slots[5].Keys.Top[0]}})
	})
	r.sched.RunUntil(300 * sim.Millisecond)
	if cl.AcksReceived != 1 {
		t.Fatalf("acks = %d, want 1", cl.AcksReceived)
	}
	if cl.Pending() != 0 {
		t.Fatal("pending subscription not cleared by ack")
	}
	if cl.Retransmits != 0 {
		t.Fatalf("retransmits = %d, want 0 on a clean path", cl.Retransmits)
	}
}

func TestRetransmitWithoutAckGivesUp(t *testing.T) {
	r := newRig(t)
	// Client pointed at a black-hole address: no acks ever come.
	cl := NewClient(r.h2, r.h1.Addr())
	cl.MaxTries = 3
	cl.RTO = 20 * sim.Millisecond
	r.sched.At(0, func() {
		cl.Subscribe(1, []packet.AddrKey{{Addr: grp, Key: 1}})
	})
	r.sched.RunUntil(sim.Second)
	if cl.Retransmits != 2 {
		t.Fatalf("retransmits = %d, want MaxTries-1 = 2", cl.Retransmits)
	}
	if cl.Pending() != 0 {
		t.Fatal("gave-up subscription should be dropped")
	}
}

func TestUnsubscribeDoesNotHarmOtherInterface(t *testing.T) {
	r := newRig(t)
	got1 := flidCounter(r.h1)
	got2 := flidCounter(r.h2)
	cl1 := NewClient(r.h1, r.edge.Addr())
	cl2 := NewClient(r.h2, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		key := r.slots[5].Keys.Top[0]
		cl1.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: key}})
		cl2.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: key}})
	})
	r.sched.At(520*sim.Millisecond, func() { cl1.Unsubscribe([]packet.Addr{grp}) })
	r.sched.At(560*sim.Millisecond, func() { r.sendData(5, 1) })
	r.sched.RunUntil(650 * sim.Millisecond)
	if *got1 != 0 {
		t.Fatalf("unsubscribed interface got %d packets", *got1)
	}
	if *got2 != 2 {
		t.Fatalf("other interface got %d packets, want 2", *got2)
	}
}

// An unsubscribe prunes a group only once no other interface holds it:
// with two holders the first to leave keeps the edge on the tree, and the
// last one takes it off.
func TestUnsubscribePrunesAfterLastHolder(t *testing.T) {
	r := newRig(t)
	cl1 := NewClient(r.h1, r.edge.Addr())
	cl2 := NewClient(r.h2, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		key := r.slots[5].Keys.Top[0]
		cl1.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: key}})
		cl2.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: key}})
	})
	r.sched.At(520*sim.Millisecond, func() { cl1.Unsubscribe([]packet.Addr{grp}) })
	r.sched.RunUntil(540 * sim.Millisecond)
	if !r.ctl.grafted[grp] {
		t.Fatal("group pruned while the other interface still holds it")
	}
	if n := holderCount(r.ctl, grp); n != 1 {
		t.Fatalf("%d holders after one of two left, want 1", n)
	}
	r.sched.At(550*sim.Millisecond, func() { cl2.Unsubscribe([]packet.Addr{grp}) })
	r.sched.RunUntil(580 * sim.Millisecond)
	if r.ctl.grafted[grp] {
		t.Fatal("group still grafted after its last holder left")
	}
	if n := holderCount(r.ctl, grp); n != 0 {
		t.Fatalf("%d holders after both left, want 0", n)
	}
}

// holderCount walks group's grant list.
func holderCount(c *Controller, group packet.Addr) int {
	n := 0
	for g := c.holders[group]; g != nil; g = g.next {
		n++
	}
	return n
}

func TestDecreaseAndIncreaseKeysOpen(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 3) }) // upgrades authorized to group 3
	r.sched.At(20*sim.Millisecond, func() {
		ks := r.slots[5].Keys
		cl.Subscribe(5, []packet.AddrKey{
			{Addr: grp, Key: ks.Dec[0]},     // decrease key for group 1
			{Addr: grp + 1, Key: ks.Dec[1]}, // decrease key for group 2
			{Addr: grp + 2, Key: ks.Inc[2]}, // increase key for group 3
		})
	})
	r.sched.RunUntil(100 * sim.Millisecond)
	if r.ctl.GrantsIssued != 3 {
		t.Fatalf("grants = %d, want 3", r.ctl.GrantsIssued)
	}
}

func TestIncreaseKeyRejectedWithoutAuthorization(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) }) // no upgrades
	r.sched.At(20*sim.Millisecond, func() {
		ks := r.slots[5].Keys
		// ε_3 would be α_2; without authorization the tuple carries no
		// increase key, so α_2 must not open group 3.
		cl.Subscribe(5, []packet.AddrKey{{Addr: grp + 2, Key: ks.Top[1]}})
	})
	r.sched.RunUntil(100 * sim.Millisecond)
	if r.ctl.GrantsIssued != 0 {
		t.Fatal("unauthorized increase key granted access")
	}
}

func TestNewGroupGraceOpensOnFirstDelivery(t *testing.T) {
	r := newRig(t)
	got := flidCounter(r.h1)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		cl.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: r.slots[5].Keys.Top[0]}})
	})
	// First delivery in slot 5 opens the grace window; data in slots 6 and
	// 7 still flows (grace covers the receiver's key-less catch-up), data
	// in slot 8 does not.
	r.sched.At(530*sim.Millisecond, func() { r.sendData(5, 1) })
	for s := uint32(6); s <= 8; s++ {
		s := s
		r.sched.At(sim.Time(s)*slotDur+30*sim.Millisecond, func() {
			r.makeSlot(s, 0)
			r.sendData(s, 1)
		})
	}
	r.sched.RunUntil(700 * sim.Millisecond)
	if *got != 4 {
		t.Fatalf("got %d packets during slot 5-6 window, want 4", *got)
	}
	r.sched.RunUntil(sim.Second)
	// Slot 7 data arrives at ~733ms, still within grace started ~537ms
	// (grace = 2 slots = 200ms → until ~737ms); slot 8 data at ~833ms is
	// blocked.
	if *got != 6 {
		t.Fatalf("got %d packets total, want 6", *got)
	}
}

func TestECNScrubOnLocalDelivery(t *testing.T) {
	r := newRig(t)
	r.ctl.EnableECNScrub(keys.NewSource(keys.DefaultBits, sim.NewRNG(77).Uint64))
	var comps []keys.Key
	r.h1.Handle(packet.ProtoFLID, func(pkt *packet.Packet) {
		comps = append(comps, pkt.Header.(*packet.FLIDHeader).Component)
	})
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(grp) })
	r.sched.At(30*sim.Millisecond, func() {
		ls := r.makeSlot(0, 0)
		comp, _ := ls.Fields(1)
		pkt := packet.New(r.src.Addr(), grp, 576, &packet.FLIDHeader{
			Session: 1, Group: 1, Slot: 0, Seq: 1, Count: 2, HasDelta: true, Component: comp,
		})
		pkt.ECN = true // CE-marked upstream
		r.src.Send(pkt)
		comp2, _ := ls.Fields(1)
		pkt2 := packet.New(r.src.Addr(), grp, 576, &packet.FLIDHeader{
			Session: 1, Group: 1, Slot: 0, Seq: 2, Count: 2, HasDelta: true, Component: comp2,
		})
		r.src.Send(pkt2)
		r.slots[0] = ls
	})
	r.sched.RunUntil(200 * sim.Millisecond)
	if len(comps) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(comps))
	}
	// The XOR of delivered components must NOT reconstruct the top key,
	// because the marked packet's component was scrubbed.
	if keys.XOR(comps...) == r.slots[0].Keys.Top[0] {
		t.Fatal("scrub failed: receiver can still reconstruct the key")
	}
}

func TestInterfaceKeyingBlocksCollusion(t *testing.T) {
	r := newRig(t)
	ik := r.ctl.EnableInterfaceKeying(grp, nGroups, keys.NewSource(keys.DefaultBits, sim.NewRNG(88).Uint64))

	// Both hosts receive the minimal group during grace.
	var comps1, comps2 []keys.Key
	r.h1.Handle(packet.ProtoFLID, func(pkt *packet.Packet) {
		comps1 = append(comps1, pkt.Header.(*packet.FLIDHeader).Component)
	})
	r.h2.Handle(packet.ProtoFLID, func(pkt *packet.Packet) {
		comps2 = append(comps2, pkt.Header.(*packet.FLIDHeader).Component)
	})
	cl1 := NewClient(r.h1, r.edge.Addr())
	cl2 := NewClient(r.h2, r.edge.Addr())
	r.sched.At(0, func() { cl1.SessionJoin(grp); cl2.SessionJoin(grp) })
	r.sched.At(230*sim.Millisecond, func() {
		r.makeSlot(2, 0)
		r.sendData(2, 1)
	})
	r.sched.RunUntil(290 * sim.Millisecond)
	if len(comps1) != 2 || len(comps2) != 2 {
		t.Fatalf("deliveries: h1=%d h2=%d, want 2 each", len(comps1), len(comps2))
	}

	lower1 := keys.XOR(comps1...)
	lower2 := keys.XOR(comps2...)
	if lower1 == lower2 {
		t.Fatal("interfaces reconstructed identical lower keys; alteration inactive")
	}
	stored := storedKeys{top: r.slots[2].Keys.Top[0]}
	if !ik.Validate(r.h1.Addr(), grp, 2, lower1, stored) {
		t.Fatal("h1's own lower key rejected")
	}
	if ik.Validate(r.h2.Addr(), grp, 2, lower1, stored) {
		t.Fatal("collusion: h1's key accepted for h2")
	}
	if !ik.Validate(r.h2.Addr(), grp, 2, lower2, stored) {
		t.Fatal("h2's own lower key rejected")
	}
}

func TestControlIgnoresNonLocalHosts(t *testing.T) {
	r := newRig(t)
	outsider := r.net.AddHost("outsider")
	r.net.Connect(outsider, r.edge, 1_000_000, sim.Millisecond, 1<<20)
	r.net.ComputeRoutes()
	// outsider is connected but never attached as a local interface.
	cl := NewClient(outsider, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		cl.Subscribe(5, []packet.AddrKey{{Addr: grp, Key: r.slots[5].Keys.Top[0]}})
	})
	r.sched.RunUntil(200 * sim.Millisecond)
	if r.ctl.GrantsIssued != 0 {
		t.Fatal("non-local host got a grant")
	}
}

func TestStaleSlotSubscriptionRejected(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(1, 0) })
	// Wait until slot 3, then submit the (correct) key for slot 1.
	r.sched.At(330*sim.Millisecond, func() {
		cl.Subscribe(1, []packet.AddrKey{{Addr: grp, Key: r.slots[1].Keys.Top[0]}})
	})
	r.sched.RunUntil(500 * sim.Millisecond)
	if r.ctl.GrantsIssued != 0 {
		t.Fatal("stale-slot key granted access")
	}
}

func TestSessionJoinRequiresMulticastAddr(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(packet.Addr(5)) }) // bogus
	r.sched.RunUntil(50 * sim.Millisecond)
	if len(r.ctl.ifaces) != 0 {
		ifc := r.ctl.ifaces[r.h1.Addr()]
		if ifc != nil && len(ifc.grants) != 0 {
			t.Fatal("unicast 'group' created a grant")
		}
	}
}
