package packet

import "testing"

func TestPoolGetRecyclesEnvelopes(t *testing.T) {
	var pl Pool
	p := pl.Get(1, 2, 100, nil)
	if p.Refs() != 1 {
		t.Fatalf("Refs = %d, want 1", p.Refs())
	}
	p.Release()
	if pl.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after release, want 0", pl.Outstanding())
	}
	q := pl.Get(3, 4, 200, nil)
	if q != p {
		t.Fatal("Get did not reuse the released envelope")
	}
	if q.Src != 3 || q.Dst != 4 || q.Size != 200 || q.Header != nil || q.ECN {
		t.Fatalf("recycled envelope kept stale fields: %+v", q)
	}
	if pl.Fresh != 1 {
		t.Fatalf("Fresh = %d, want 1 (second Get must come from the freelist)", pl.Fresh)
	}
	q.Release()
}

func TestRetainReleaseFanOut(t *testing.T) {
	var pl Pool
	p := pl.Get(1, MulticastBase, 576, nil)
	// Fan out to 3 branches: each takes its own reference.
	for i := 0; i < 3; i++ {
		p.Retain()
	}
	p.Release() // the replicating hop drops its incoming reference
	if p.Refs() != 3 {
		t.Fatalf("Refs = %d after fan-out, want 3", p.Refs())
	}
	for i := 0; i < 3; i++ {
		if pl.Outstanding() != 1 {
			t.Fatalf("Outstanding = %d mid-fan-out, want 1", pl.Outstanding())
		}
		p.Release()
	}
	if pl.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after all branches released, want 0", pl.Outstanding())
	}
	if pl.FreePackets() != 1 {
		t.Fatalf("FreePackets = %d, want 1", pl.FreePackets())
	}
}

func TestWritableCopiesOnlyWhenShared(t *testing.T) {
	var pl Pool
	sole := pl.Get(1, 2, 100, nil)
	if got := sole.Writable(); got != sole {
		t.Fatal("sole owner should be mutated in place, not copied")
	}

	shared := pl.Get(1, 2, 100, nil)
	shared.UID = 42
	shared.Retain()
	cow := shared.Writable()
	if cow == shared {
		t.Fatal("shared packet must be copied on write")
	}
	if cow.Refs() != 1 || shared.Refs() != 1 {
		t.Fatalf("refs after CoW: copy=%d orig=%d, want 1/1", cow.Refs(), shared.Refs())
	}
	if cow.UID != 42 || cow.Src != 1 || cow.Dst != 2 || cow.Size != 100 {
		t.Fatalf("CoW copy lost fields: %+v", cow)
	}
	cow.ECN = true
	if shared.ECN {
		t.Fatal("mutating the CoW copy leaked into the shared original")
	}
	sole.Release()
	cow.Release()
	shared.Release()
	if pl.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after full drain, want %d", pl.Outstanding(), 0)
	}
}

func TestWritableUnpooledPacket(t *testing.T) {
	p := New(1, 2, 100, nil)
	p.Retain()
	q := p.Writable()
	if q == p {
		t.Fatal("shared un-pooled packet must still copy on write")
	}
	if p.Refs() != 1 || q.Refs() != 1 {
		t.Fatalf("refs after un-pooled CoW: orig=%d copy=%d", p.Refs(), q.Refs())
	}
	p.Release() // no-op for the GC-owned envelope, must not panic
	q.Release()
}

func TestOverReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get(1, 2, 100, nil)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release should panic")
		}
	}()
	p.Release()
}

// recyclable lists every header type the pool recycles, each with a getter
// that fills every field with a recognisable value and a check that a
// header holds exactly those values. Slices get two elements so a shallow
// copy and a deep one can be told apart.
var recyclable = []struct {
	name  string
	mint  func(pl *Pool) Header
	check func(h Header) bool
	// scribble overwrites the header in place, as its next user will.
	scribble func(h Header)
	// parked reports how many headers of the type sit on pl's freelist.
	parked func(pl *Pool) int
}{
	{"flid",
		func(pl *Pool) Header { h := pl.FLIDHeader(); h.Group, h.Component = 3, 0xbeef; return h },
		func(h Header) bool { f := h.(*FLIDHeader); return f.Group == 3 && f.Component == 0xbeef },
		func(h Header) { *h.(*FLIDHeader) = FLIDHeader{Group: 9} },
		func(pl *Pool) int { return len(pl.flid.Freelist) }},
	{"tcp",
		func(pl *Pool) Header { h := pl.TCPHeader(); h.Flow, h.Seq = 7, 1460; return h },
		func(h Header) bool { f := h.(*TCPHeader); return f.Flow == 7 && f.Seq == 1460 },
		func(h Header) { *h.(*TCPHeader) = TCPHeader{Flow: 9} },
		func(pl *Pool) int { return len(pl.tcp.Freelist) }},
	{"repl",
		func(pl *Pool) Header {
			h := pl.ReplHeader()
			h.Group, h.Component, h.Decrease = 3, 0xbeef, 0xcafe
			return h
		},
		func(h Header) bool {
			f := h.(*ReplHeader)
			return f.Group == 3 && f.Component == 0xbeef && f.Decrease == 0xcafe
		},
		func(h Header) { *h.(*ReplHeader) = ReplHeader{Group: 9} },
		func(pl *Pool) int { return len(pl.repl.Freelist) }},
	{"sigma",
		func(pl *Pool) Header {
			h := pl.SigmaHeader()
			h.Kind, h.Slot, h.AckID = SigmaSubscribe, 5, 11
			h.Pairs = append(h.Pairs, AddrKey{MulticastBase, 1}, AddrKey{MulticastBase + 1, 2})
			h.Addrs = append(h.Addrs, MulticastBase+2, MulticastBase+3)
			return h
		},
		func(h Header) bool {
			f := h.(*SigmaHeader)
			return f.Kind == SigmaSubscribe && f.Slot == 5 && f.AckID == 11 &&
				len(f.Pairs) == 2 && f.Pairs[0] == (AddrKey{MulticastBase, 1}) && f.Pairs[1] == (AddrKey{MulticastBase + 1, 2}) &&
				len(f.Addrs) == 2 && f.Addrs[0] == MulticastBase+2 && f.Addrs[1] == MulticastBase+3
		},
		func(h Header) {
			f := h.(*SigmaHeader)
			f.Kind, f.Slot, f.AckID = SigmaAck, 99, 99
			f.Pairs = append(f.Pairs[:0], AddrKey{1, 9}, AddrKey{2, 9})
			f.Addrs = append(f.Addrs[:0], 1, 2)
		},
		func(pl *Pool) int { return len(pl.sigma.Freelist) }},
	{"keyann",
		func(pl *Pool) Header {
			h := pl.KeyAnnounce()
			h.Session, h.Slot, h.FECTotal = 1, 5, 2
			h.Tuples = []KeyTuple{{Addr: MulticastBase, Top: 1}, {Addr: MulticastBase + 1, Top: 2}}
			return h
		},
		func(h Header) bool {
			f := h.(*KeyAnnounce)
			return f.Session == 1 && f.Slot == 5 && f.FECTotal == 2 && len(f.Tuples) == 2 && f.Tuples[1].Top == 2
		},
		func(h Header) { *h.(*KeyAnnounce) = KeyAnnounce{Slot: 99} },
		func(pl *Pool) int { return len(pl.keyAnn.Freelist) }},
	{"feedback",
		func(pl *Pool) Header {
			h := pl.FeedbackHeader()
			h.Slot, h.Count, h.Congested = 5, 1<<20, true
			return h
		},
		func(h Header) bool { f := h.(*FeedbackHeader); return f.Slot == 5 && f.Count == 1<<20 && f.Congested },
		func(h Header) { *h.(*FeedbackHeader) = FeedbackHeader{Slot: 99} },
		func(pl *Pool) int { return len(pl.feedback.Freelist) }},
	{"share",
		func(pl *Pool) Header { h := pl.ShareHeader(); h.ShareBps, h.Subscribers = 250_000, 4; return h },
		func(h Header) bool { f := h.(*ShareHeader); return f.ShareBps == 250_000 && f.Subscribers == 4 },
		func(h Header) { *h.(*ShareHeader) = ShareHeader{ShareBps: 1} },
		func(pl *Pool) int { return len(pl.share.Freelist) }},
}

// A recyclable header belongs to exactly one envelope: the final Release
// parks it once, the next getter hands the same object back zeroed, and
// every path that copies an envelope — copy-on-write under fan-out, a
// cross-pool AdoptCopy, an un-pooled Clone — copies the header too, slices
// included, so recycling the original never reaches the copy.
func TestRecyclableHeaderLifecycle(t *testing.T) {
	for _, tc := range recyclable {
		t.Run(tc.name+"/recycle", func(t *testing.T) {
			var pl Pool
			h := tc.mint(&pl)
			tc.scribble(h) // whatever its first use left behind
			p := pl.Get(1, 2, 0, h)
			p.Retain().Release() // a branch comes and goes; not final
			if tc.parked(&pl) != 0 {
				t.Fatal("header parked while its envelope is still referenced")
			}
			p.Release()
			if tc.parked(&pl) != 1 {
				t.Fatalf("final Release parked %d headers, want 1", tc.parked(&pl))
			}
			if again := tc.mint(&pl); again != h {
				t.Fatal("getter did not hand the parked header back")
			} else if !tc.check(again) {
				t.Fatal("recycled header was not reset before reuse")
			}
		})
		t.Run(tc.name+"/copy-on-write", func(t *testing.T) {
			var pl Pool
			orig := pl.Get(1, MulticastBase, 0, tc.mint(&pl))
			orig.Retain() // a second fan-out branch shares the envelope
			cow := orig.Writable()
			if cow == orig || cow.Header == orig.Header {
				t.Fatal("shared envelope must be copied on write, header included")
			}
			orig.Release() // the other branch delivers; the original recycles
			tc.scribble(tc.mint(&pl))
			if !tc.check(cow.Header) {
				t.Fatal("reusing the original's header changed the copy's")
			}
			cow.Release()
			if pl.Outstanding() != 0 || tc.parked(&pl) != 1 {
				t.Fatalf("after drain: %d outstanding, %d parked, want 0 and 1", pl.Outstanding(), tc.parked(&pl))
			}
		})
		t.Run(tc.name+"/adopt-copy", func(t *testing.T) {
			var src, dst Pool
			orig := src.Get(1, 2, 0, tc.mint(&src))
			cp := dst.AdoptCopy(orig)
			orig.Release() // back to its own shard's pool
			tc.scribble(tc.mint(&src))
			if !tc.check(cp.Header) {
				t.Fatal("reusing the original's header changed the adopted copy's")
			}
			cp.Release()
			if src.Outstanding() != 0 || dst.Outstanding() != 0 {
				t.Fatalf("pools unbalanced: src %d, dst %d outstanding", src.Outstanding(), dst.Outstanding())
			}
			if tc.parked(&src) != 0 || tc.parked(&dst) != 1 {
				t.Fatalf("parked src=%d dst=%d, want the scribbled header in use and the copy's parked in dst", tc.parked(&src), tc.parked(&dst))
			}
		})
		t.Run(tc.name+"/clone", func(t *testing.T) {
			var pl Pool
			orig := pl.Get(1, 2, 0, tc.mint(&pl))
			cl := orig.Clone()
			orig.Release()
			tc.scribble(tc.mint(&pl))
			if !tc.check(cl.Header) {
				t.Fatal("reusing the original's header changed the un-pooled clone's")
			}
			cl.Release() // GC-owned: must not park anything
			if tc.parked(&pl) != 0 {
				t.Fatal("an un-pooled clone's header reached the pool")
			}
		})
		t.Run(tc.name+"/double-release", func(t *testing.T) {
			var pl Pool
			p := pl.Get(1, 2, 0, tc.mint(&pl))
			p.Release()
			defer func() {
				if recover() == nil {
					t.Fatal("double Release should panic")
				}
				if tc.parked(&pl) != 1 {
					t.Fatalf("double Release parked the header %d times", tc.parked(&pl))
				}
			}()
			p.Release()
		})
	}
}

// A parked key announcement must not pin its slot's tuple slice: the slice
// is shared between copies and owned by the GC, not by any one header.
func TestParkedKeyAnnounceDropsTuples(t *testing.T) {
	var pl Pool
	h := pl.KeyAnnounce()
	h.Tuples = make([]KeyTuple, 4)
	pl.Get(1, MulticastBase, 0, h).Release()
	if pl.keyAnn.Freelist[0].Tuples != nil {
		t.Fatal("parked KeyAnnounce still references its tuples")
	}
}

// A recycled SIGMA message keeps the backing arrays of its previous use,
// so a steady subscriber allocates nothing per message.
func TestSigmaHeaderKeepsCapacity(t *testing.T) {
	var pl Pool
	h := pl.SigmaHeader()
	h.Pairs = append(h.Pairs, make([]AddrKey, 10)...)
	h.Addrs = append(h.Addrs, make([]Addr, 10)...)
	pl.Get(1, 2, 0, h).Release()
	got := testing.AllocsPerRun(100, func() {
		m := pl.SigmaHeader()
		m.Pairs = append(m.Pairs, make([]AddrKey, 10)...)
		m.Addrs = append(m.Addrs, make([]Addr, 10)...)
		pl.Get(1, 2, 0, m).Release()
	})
	if got != 0 {
		t.Fatalf("minting a warm SIGMA message allocated %.0f times", got)
	}
}

// Headers minted outside the pool (a literal on a pooled packet, as tests
// and drivers write) are adopted on release, but never hoarded: a freelist
// holds at most one header per envelope the pool owns.
func TestFreelistNeverOutgrowsEnvelopes(t *testing.T) {
	var pl Pool
	for i := 0; i < 100; i++ {
		pl.Get(1, 2, 0, &FeedbackHeader{Slot: uint32(i)}).Release()
	}
	if pl.Fresh != 1 || len(pl.feedback.Freelist) != 1 {
		t.Fatalf("%d envelopes, %d parked headers after 100 literal-header packets through one envelope; want 1 and 1",
			pl.Fresh, len(pl.feedback.Freelist))
	}
}
