package sigma

import (
	"slices"
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// A subscription message is owned by two parties at once — the network,
// which may drop it at a full queue, and the client's retransmission
// buffer. The drop must not recycle the pooled header out from under the
// buffer: the retransmitted copy carries the original pairs even though the
// client minted other SIGMA messages in between.
func TestRetransmittedSubscribeKeepsPairsAfterQueueDrop(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	up := r.net.LinkBetween(r.h1.ID(), r.edge.ID())
	want := []packet.AddrKey{}
	r.sched.At(5*sim.Millisecond, func() { r.makeSlot(5, 0) })
	r.sched.At(20*sim.Millisecond, func() {
		ks := r.slots[5].Keys
		want = append(want, packet.AddrKey{Addr: grp, Key: ks.Top[0]}, packet.AddrKey{Addr: grp + 1, Key: ks.Top[1]})
		up.Queue.CapBytes = 1 // nothing fits: the first transmission drops
		cl.Subscribe(5, want)
		if up.Queue.Dropped != 1 {
			t.Fatalf("access queue dropped %d packets, want the subscribe", up.Queue.Dropped)
		}
		up.Queue.CapBytes = 1 << 20
		// Were the dropped message's header back on the freelist, these
		// would be written over it.
		cl.SessionJoin(grp + 3)
		cl.Unsubscribe([]packet.Addr{grp + 2, grp + 3})
	})
	r.sched.RunUntil(300 * sim.Millisecond)

	if cl.Retransmits != 1 || cl.AcksReceived != 1 || cl.Pending() != 0 {
		t.Fatalf("retransmits %d, acks %d, pending %d; want one retransmission, acknowledged", cl.Retransmits, cl.AcksReceived, cl.Pending())
	}
	if r.ctl.GrantsIssued != 2 || r.ctl.InvalidKeys != 0 {
		t.Fatalf("retransmission validated %d keys and failed %d, want the 2 original pairs intact", r.ctl.GrantsIssued, r.ctl.InvalidKeys)
	}
	if out := r.net.Pool().Outstanding(); out != 0 {
		t.Fatalf("pool has %d packets outstanding after the exchange", out)
	}
}

// An acknowledged or abandoned subscription hands its buffer entry back:
// a client that subscribes once per slot reuses one entry and one timer.
func TestClientReusesPendingEntries(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	pairs := []packet.AddrKey{{Addr: grp, Key: 1}}
	for i := 0; i < 4; i++ {
		slot := uint32(i)
		r.sched.At(sim.Time(i)*slotDur+sim.Millisecond, func() { cl.Subscribe(slot, pairs) })
	}
	r.sched.RunUntil(5 * slotDur)
	if cl.AcksReceived != 4 || cl.Pending() != 0 {
		t.Fatalf("acks %d, pending %d", cl.AcksReceived, cl.Pending())
	}
	if len(cl.idle) != 1 {
		t.Fatalf("%d idle entries after four sequential subscriptions, want the one reused", len(cl.idle))
	}
}

// The ECN scrub replaces the header of the copy bound for one interface.
// With pooled replicated-data headers that must leave the shared original
// intact for the other branches, and every header parked exactly once.
func TestECNScrubReplacesPooledHeader(t *testing.T) {
	r := newRig(t)
	r.ctl.EnableECNScrub(keys.NewSource(keys.DefaultBits, sim.NewRNG(77).Uint64))
	pool := r.net.Pool()

	h := pool.ReplHeader()
	h.Session, h.Group, h.Component, h.Decrease = 1, 1, 0xbeef, 0xcafe
	pkt := pool.Get(r.src.Addr(), grp, 576, h)
	pkt.ECN = true
	pkt.Retain() // the branch toward the other interface

	out := r.ctl.TransformLocal(pkt)
	if out == pkt {
		t.Fatal("a shared envelope was scrubbed in place")
	}
	got := out.Header.(*packet.ReplHeader)
	if got == h || got.Component == 0xbeef {
		t.Fatalf("delivered copy not scrubbed: %+v", got)
	}
	if got.Decrease != 0xcafe {
		t.Fatal("scrub must leave the decrease field: the receiver may still move down")
	}
	if h.Component != 0xbeef {
		t.Fatal("scrub reached the shared original's header")
	}
	out.Release()
	pkt.Release()
	if pool.Outstanding() != 0 {
		t.Fatalf("%d packets outstanding", pool.Outstanding())
	}
	// Whatever the pool now holds, it holds once: two fresh headers are two
	// different objects.
	if a, b := pool.ReplHeader(), pool.ReplHeader(); a == b {
		t.Fatal("one header was parked twice")
	}
}

// Every copy of a slot's announcement carries the tuples in an array of its
// own. The sender refills its scratch for the next slot while copies still
// wait out their spacing, and overwriting one copy — a sibling, a Clone or
// an AdoptCopy — must leave every other copy as it was announced. The
// announcer here announces on two groups, as a replicated session's does,
// so two repeat copies wait side by side.
func TestAnnouncementCopiesOwnTheirTuples(t *testing.T) {
	r := newRig(t)
	r.ann = NewAnnouncer(r.src, &core.Session{ID: 1, BaseAddr: grp, SlotDur: slotDur}, 2)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(grp) })
	tuplesOf := func(p *packet.Packet) []packet.KeyTuple { return p.Header.(*packet.KeyAnnounce).Tuples }
	scribble := func(p *packet.Packet) {
		h := p.Header.(*packet.KeyAnnounce)
		h.Tuples = append(h.Tuples[:0], make([]packet.KeyTuple, len(h.Tuples))...)
	}
	var want []packet.KeyTuple
	var other packet.Pool // a second shard's pool
	r.sched.At(10*sim.Millisecond, func() {
		counts := []int{2, 2, 2, 2}
		scratch := r.beginSlot(5, make([]bool, nGroups), counts).Keys.AppendTuples(nil, grp)
		want = slices.Clone(scratch)
		r.ann.Announce(5, scratch)
		if queued := len(r.ann.spaced) - r.ann.head; queued != 2 {
			t.Fatalf("%d copies wait out their spacing, want 2", queued)
		}
		c1, c2 := r.ann.spaced[r.ann.head].pkt, r.ann.spaced[r.ann.head+1].pkt

		scratch = r.beginSlot(6, make([]bool, nGroups), counts).Keys.AppendTuples(scratch[:0], grp)
		if slices.Equal(scratch, want) {
			t.Fatal("slot 6 drew slot 5's keys; the refill proves nothing")
		}
		for i, c := range []*packet.Packet{c1, c2} {
			if !slices.Equal(tuplesOf(c), want) {
				t.Fatalf("queued copy %d changed when the sender refilled its scratch", i+1)
			}
		}

		clone, adopted := c1.Clone(), other.AdoptCopy(c1)
		copies := []*packet.Packet{c2, clone, adopted}
		for i, victim := range copies {
			scribble(victim)
			for _, p := range append([]*packet.Packet{c1}, copies[i+1:]...) {
				if !slices.Equal(tuplesOf(p), want) {
					t.Fatalf("overwriting copy %d of 3 (sibling, clone, adopted) reached another copy", i+1)
				}
			}
		}
		clone.Release()
		adopted.Release()
	})
	r.sched.RunUntil(300 * sim.Millisecond)

	// Copy 0 left before the refill; the edge stored what it carried.
	for _, tp := range want {
		if got := r.ctl.store[tp.Addr][5]; got.top != tp.Top || got.dec != tp.Dec {
			t.Fatalf("edge stored %+v for %v, want the announced %+v", got, tp.Addr, tp)
		}
	}
	if r.net.Pool().Outstanding() != 0 || other.Outstanding() != 0 {
		t.Fatalf("outstanding after drain: %d in the network's pool, %d in the other", r.net.Pool().Outstanding(), other.Outstanding())
	}
}

// The announce-dedup set is pruned with the key store, so a controller's
// footprint does not grow with the length of the run; a copy that re-arrives
// after its entry is gone is stale and is not counted again.
func TestControllerStateBoundedOverLongRun(t *testing.T) {
	r := newRig(t)
	cl := NewClient(r.h1, r.edge.Addr())
	r.sched.At(0, func() { cl.SessionJoin(grp) })
	const slots = 10_000
	sender := delta.NewLayeredSender(nGroups, r.keySrc)
	auth, counts := make([]bool, nGroups), []int{2, 2, 2, 2}
	var next keys.Key // the minimal group's key for the coming slot
	maxSeen, maxStore := 0, 0
	for s := uint32(0); s < slots; s++ {
		s := s
		r.sched.At(sim.Time(s)*slotDur+sim.Millisecond, func() {
			// What a session does every slot: the receiver renews its
			// subscription with last slot's key, the sender announces the
			// keys of two slots ahead.
			cl.Subscribe(s+1, []packet.AddrKey{{Addr: grp, Key: next}})
			ls := sender.BeginSlot(s+2, auth, counts)
			r.ann.Announce(s+2, ls.Keys.Tuples(grp))
			next = ls.Keys.Top[0]
			if n := len(r.ctl.seen); n > maxSeen {
				maxSeen = n
			}
			if n := len(r.ctl.store[grp]); n > maxStore {
				maxStore = n
			}
		})
	}
	r.sched.RunUntil(slots * slotDur)
	if r.ctl.AnnouncesIntercepted != slots {
		t.Fatalf("intercepted %d announces over %d slots", r.ctl.AnnouncesIntercepted, slots)
	}
	if r.ctl.GrantsIssued != slots-1 { // every renewal but the keyless first
		t.Fatalf("issued %d grants over %d slots", r.ctl.GrantsIssued, slots)
	}
	if maxSeen > 8 || maxStore > 8 {
		t.Fatalf("dedup set peaked at %d entries, key store at %d per group; both must stay a few slots deep", maxSeen, maxStore)
	}

	// A copy of a long-gone announcement turns up: stale, ignored, uncounted.
	before := r.ctl.AnnouncesIntercepted
	r.ctl.Intercept(packet.New(r.src.Addr(), grp, 0, &packet.KeyAnnounce{Session: 1, Slot: 17, Tuples: []packet.KeyTuple{{Addr: grp, Top: 1}}}))
	if r.ctl.AnnouncesIntercepted != before || r.ctl.HasKeysFor(grp, 17) {
		t.Fatal("a stale re-arrival was counted or stored")
	}
}
