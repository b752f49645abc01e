package deltasigma_test

import (
	"testing"

	"deltasigma"
	"deltasigma/internal/core"
	"deltasigma/internal/keys"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// TestInflateDeflateRoundTrip drives the kit's attacker through
// Inflate→Deflate→Inflate on every registered protocol that has one: the
// plain-IGMP Inflator stops its kernel receiver's rule and restarts it, the
// guessing engines keep their legitimate receiver running throughout — and
// either way the toggles must leave a clean, drainable experiment behind.
func TestInflateDeflateRoundTrip(t *testing.T) {
	for _, name := range deltasigma.Protocols() {
		if !deltasigma.ProtocolHasAttacker(name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p, _ := deltasigma.LookupProtocol(name)
			opts := append([]deltasigma.Option{deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(4)},
				protocolOptions(name)...)
			exp := deltasigma.MustNew(opts...)
			s := exp.AddSession(1)
			atk := s.AddAttacker()

			exp.Run(4 * deltasigma.Second)
			if atk.Inflated() || atk.Level() < 1 {
				t.Fatalf("before the attack: inflated=%v level=%d, want a well-behaved subscribed receiver", atk.Inflated(), atk.Level())
			}
			for round := 1; round <= 2; round++ {
				atk.Inflate()
				atk.Inflate() // idempotent
				exp.Run(exp.Now() + 3*deltasigma.Second)
				if !atk.Inflated() {
					t.Fatalf("round %d: not inflated after Inflate", round)
				}
				// An unprotected attacker abandons congestion control; a
				// protected one keeps its entitled subscription alive.
				if joined := atk.Level() > 0; joined != p.Protected {
					t.Fatalf("round %d: inflated attacker at level %d on a protected=%v protocol", round, atk.Level(), p.Protected)
				}
				if round == 1 {
					atk.Deflate()
					atk.Deflate() // idempotent
					exp.Run(exp.Now() + 3*deltasigma.Second)
					if atk.Inflated() || atk.Level() < 1 {
						t.Fatalf("after Deflate: inflated=%v level=%d, want well-behaved control resumed", atk.Inflated(), atk.Level())
					}
				}
			}
			drainAndVerify(t, exp)
		})
	}
}

// sourceSink is a node that records what a source transmits: per data
// slot, every data header and every announcement copy's group.
type sourceSink struct {
	id        netsim.NodeID
	data      map[uint32][]packet.FLIDHeader // a ReplHeader's fields copied in
	repl      map[uint32]int                 // ReplHeader packets per data slot
	announced map[uint32][]packet.Addr       // copies' destinations per data slot
	tuples    map[uint32][]packet.KeyTuple
}

func (s *sourceSink) ID() netsim.NodeID { return s.id }
func (s *sourceSink) Name() string      { return "sink" }
func (s *sourceSink) Receive(pkt *packet.Packet, _ *netsim.Link) {
	switch h := pkt.Header.(type) {
	case *packet.FLIDHeader:
		s.data[h.Slot] = append(s.data[h.Slot], *h)
	case *packet.ReplHeader:
		s.repl[h.Slot]++
		s.data[h.Slot] = append(s.data[h.Slot], packet.FLIDHeader{
			Session: h.Session, Group: h.Group, Slot: h.Slot, Seq: h.Seq, Count: h.Count, IncreaseTo: h.IncreaseTo,
			HasDelta: h.HasDelta, Component: h.Component, Decrease: h.Decrease,
		})
	case *packet.KeyAnnounce:
		slot := h.Slot - core.PipelineOffset
		s.announced[slot] = append(s.announced[slot], pkt.Dst)
		s.tuples[slot] = append(s.tuples[slot][:0], h.Tuples...)
	}
	pkt.Release()
}

// TestProtectedSourceConformance pins what each protected row's source
// emits per slot, the three things its DELTA keying decides:
//   - the SIGMA announcement: z copies on the base group for the layered
//     and Shamir keyings, z on every group for the replicated one, whose
//     receivers sit on a single arbitrary group;
//   - the data headers: FLID headers carrying components that XOR to the
//     layer's top key prefix by prefix (Eq. 3) and the decrease key one
//     group down, FLID headers carrying Shamir shares, or Repl headers
//     whose components XOR to the group's own top key (Eq. 6);
//   - the pacing: group g at GroupRate(g) for cumulative layers, at
//     Cumulative(g) when every group is a complete stream.
func TestProtectedSourceConformance(t *testing.T) {
	const z = 2 // the registry's SIGMA announcement expansion factor
	for _, row := range []struct {
		name               string
		shares, replicated bool
	}{
		{name: "flid-ds"},
		{name: "flid-ds-threshold", shares: true},
		{name: "flid-ds-replicated", replicated: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			p, ok := deltasigma.LookupProtocol(row.name)
			if !ok {
				t.Fatalf("%s is not registered", row.name)
			}
			sched := sim.NewScheduler()
			net := netsim.New(sched, sim.NewRNG(1))
			src := net.AddHost("src")
			rec := &sourceSink{
				data: map[uint32][]packet.FLIDHeader{}, repl: map[uint32]int{},
				announced: map[uint32][]packet.Addr{}, tuples: map[uint32][]packet.KeyTuple{},
			}
			net.Add(func(id netsim.NodeID) netsim.Node { rec.id = id; return rec })
			net.Connect(src, rec, 1_000_000_000, sim.Millisecond, 1<<24)
			net.ComputeRoutes()

			sess := &core.Session{
				ID: 1, BaseAddr: packet.MulticastBase,
				Rates:   core.RateSchedule{Base: 100_000, Mult: 1.5, N: 4},
				SlotDur: p.Slot, PacketSize: 576,
			}
			n := sess.Rates.N
			rate := sess.Rates.GroupRate
			if row.replicated {
				rate = sess.Rates.Cumulative
			}
			pacers := make([]core.Pacer, n)
			snd := p.Sender(src, sess, sim.NewRNG(7))
			sched.At(0, snd.Start)
			const slots = 24
			sched.RunUntil(slots*sess.SlotDur + sess.SlotDur/2)

			upgrades := 0
			for slot := uint32(0); slot < slots; slot++ {
				// Announcement copies and where they went.
				want := map[packet.Addr]int{sess.BaseAddr: z}
				if row.replicated {
					want = map[packet.Addr]int{}
					for g := 1; g <= n; g++ {
						want[sess.GroupAddr(g)] = z
					}
				}
				got := map[packet.Addr]int{}
				for _, dst := range rec.announced[slot] {
					got[dst]++
				}
				if len(got) != len(want) || len(rec.announced[slot]) != z*len(want) {
					t.Fatalf("slot %d: announcement copies by group %v, want %v", slot, got, want)
				}
				for dst, c := range want {
					if got[dst] != c {
						t.Fatalf("slot %d: announcement copies by group %v, want %v", slot, got, want)
					}
				}
				tuples := rec.tuples[slot]
				if len(tuples) != n {
					t.Fatalf("slot %d: %d tuples announced, want %d", slot, len(tuples), n)
				}

				// Header kind, pacing and key fields per group.
				if repl := rec.repl[slot]; (repl > 0) != row.replicated || row.replicated && repl != len(rec.data[slot]) {
					t.Fatalf("slot %d: %d of %d data headers are Repl headers, replicated=%v", slot, repl, len(rec.data[slot]), row.replicated)
				}
				byGroup := make([][]packet.FLIDHeader, n)
				for _, h := range rec.data[slot] {
					byGroup[h.Group-1] = append(byGroup[h.Group-1], h)
				}
				var prefix keys.Key
				for g := 1; g <= n; g++ {
					hs := byGroup[g-1]
					count := pacers[g-1].Packets(rate(g), sess.SlotDur, sess.PacketSize)
					if len(hs) != count {
						t.Fatalf("slot %d group %d: %d packets, want %d at %d b/s", slot, g, len(hs), count, rate(g))
					}
					var comps keys.Key
					for i, h := range hs {
						if int(h.Seq) != i+1 || int(h.Count) != count {
							t.Fatalf("slot %d group %d: packet %d stamped seq %d of %d", slot, g, i, h.Seq, h.Count)
						}
						if h.HasDelta == row.shares {
							t.Fatalf("slot %d group %d: HasDelta=%v on a shares=%v source", slot, g, h.HasDelta, row.shares)
						}
						if row.shares {
							up := int(h.IncreaseTo) >= g+1
							if h.Component != 0 || h.Decrease != 0 || int(h.ShareX) != i+1 || (h.UpShareX != 0) != up {
								t.Fatalf("slot %d group %d: share header %+v (upgrade to %d authorized: %v)", slot, g, h, g+1, up)
							}
							continue
						}
						if h.ShareX != 0 || h.UpShareX != 0 {
							t.Fatalf("slot %d group %d: XOR keying sent a share: %+v", slot, g, h)
						}
						var dec keys.Key
						if g >= 2 {
							dec = tuples[g-2].Dec
						}
						if h.Decrease != dec {
							t.Fatalf("slot %d group %d: decrease field %v, want the announced δ_%d %v", slot, g, h.Decrease, g-1, dec)
						}
						comps = keys.XOR(comps, h.Component)
					}
					if row.shares {
						continue
					}
					top := keys.XOR(prefix, comps) // Eq. 3: α_g folds every layer up to g
					if row.replicated {
						top = comps // Eq. 6: α_g is group g's own components
					}
					if top != tuples[g-1].Top {
						t.Fatalf("slot %d group %d: components fold to %v, announced top key %v", slot, g, top, tuples[g-1].Top)
					}
					prefix = keys.XOR(prefix, comps)
				}
				if len(byGroup[0]) > 0 && byGroup[0][0].IncreaseTo >= 2 {
					upgrades++
				}
			}
			if upgrades == 0 {
				t.Fatal("vacuous: no slot authorized an upgrade")
			}
		})
	}
}
