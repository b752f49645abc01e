package flid_test

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/keys"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
	"deltasigma/internal/sim"
	"deltasigma/internal/threshold"
)

// sink is a node that records what a source transmits: every data packet's
// stamp and key fields, and every key announcement's tuples by data slot.
type sink struct {
	id     netsim.NodeID
	data   map[uint32][]sent // by data slot
	tuples map[uint32][]packet.KeyTuple
}

// sent is one data packet's header, copied out of its pooled original.
type sent struct {
	group, seq, count int
	component, dec    keys.Key
	share             shamir.Share
}

func (s *sink) ID() netsim.NodeID { return s.id }
func (s *sink) Name() string      { return "sink" }
func (s *sink) Receive(pkt *packet.Packet, _ *netsim.Link) {
	switch h := pkt.Header.(type) {
	case *packet.FLIDHeader:
		s.data[h.Slot] = append(s.data[h.Slot], sent{int(h.Group), int(h.Seq), int(h.Count), h.Component, h.Decrease, shamir.Share{X: h.ShareX, Y: h.ShareY}})
	case *packet.ReplHeader:
		s.data[h.Slot] = append(s.data[h.Slot], sent{int(h.Group), int(h.Seq), int(h.Count), h.Component, h.Decrease, shamir.Share{}})
	case *packet.KeyAnnounce:
		s.tuples[h.Slot-core.PipelineOffset] = append([]packet.KeyTuple(nil), h.Tuples...)
	}
	pkt.Release()
}

// A source stopped mid-slot lets that slot finish; started again inside
// the same slot, it must neither run the slot a second time nor hand the
// slot's queued packets another slot state's fields. Each protected
// sender is stopped and restarted inside one slot, then stopped and
// restarted across slots, and every slot it sent must be one generation:
// sequence numbers 1..Count exactly once per group, and key fields that
// rebuild the slot's announced keys.
func TestRestartWithinSlotKeepsEachSlotWhole(t *testing.T) {
	const slotDur = 250 * sim.Millisecond
	for _, proto := range []string{"flid-ds", "threshold", "replicated"} {
		t.Run(proto, func(t *testing.T) {
			sched := sim.NewScheduler()
			net := netsim.New(sched, sim.NewRNG(1))
			src := net.AddHost("src")
			rec := &sink{data: map[uint32][]sent{}, tuples: map[uint32][]packet.KeyTuple{}}
			net.Add(func(id netsim.NodeID) netsim.Node { rec.id = id; return rec })
			net.Connect(src, rec, 1_000_000_000, sim.Millisecond, 1<<24)
			net.ComputeRoutes()

			sess := &core.Session{
				ID: 1, BaseAddr: packet.MulticastBase,
				Rates:   core.RateSchedule{Base: 100_000, Mult: 1.5, N: 6},
				SlotDur: slotDur, PacketSize: 576,
			}
			policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
			rng := sim.NewRNG(7)
			var snd *core.SlotSender
			switch proto {
			case "flid-ds":
				snd = flid.NewSender(src, sess, flid.LayeredKeying, policy, rng, 1).SlotSender
			case "threshold":
				snd = flid.NewSender(src, sess, flid.ShamirKeying(threshold.GradedThresholds(sess.Rates.N)), policy, rng, 1).SlotSender
			case "replicated":
				snd = flid.NewSender(src, sess, flid.ReplicatedKeying, policy, rng, 1).SlotSender
			}

			sched.At(0, snd.Start)
			sched.At(4*slotDur+slotDur/3, snd.Stop)   // mid-slot 4
			sched.At(4*slotDur+slotDur/2, snd.Start)  // same slot: the stop is undone
			sched.At(8*slotDur+slotDur/3, snd.Stop)   // mid-slot 8
			sched.At(10*slotDur+slotDur/2, snd.Start) // mid-slot 10, slot 9 skipped
			sched.At(14*slotDur, snd.Stop)
			sched.RunUntil(16 * slotDur)

			for slot := uint32(0); slot < 14; slot++ {
				pkts, ok := rec.data[slot]
				if slot == 9 {
					if ok {
						t.Errorf("slot 9 sent %d packets while the source was stopped", len(pkts))
					}
					continue
				}
				if !ok {
					t.Errorf("slot %d sent nothing", slot)
					continue
				}
				checkSlot(t, proto, slot, pkts, rec.tuples[slot], sess.Rates.N)
			}
			if want := uint64(13); snd.SlotsRun != want {
				t.Errorf("SlotsRun = %d, want %d: a slot ran twice or not at all", snd.SlotsRun, want)
			}
		})
	}
}

// checkSlot asserts one slot's packets are a single generation of the
// slot announced in tuples.
func checkSlot(t *testing.T, proto string, slot uint32, pkts []sent, tuples []packet.KeyTuple, n int) {
	t.Helper()
	if len(tuples) != n {
		t.Errorf("slot %d: announced %d tuples, want %d", slot, len(tuples), n)
		return
	}
	var prefix keys.Key
	for g := 1; g <= n; g++ {
		var comp keys.Key
		var shares []shamir.Share
		seen := map[int]bool{}
		count := -1
		for _, p := range pkts {
			if p.group != g {
				continue
			}
			if count >= 0 && p.count != count {
				t.Errorf("slot %d group %d: Count %d and %d in one slot", slot, g, count, p.count)
			}
			count = p.count
			if seen[p.seq] {
				t.Errorf("slot %d group %d: seq %d sent twice", slot, g, p.seq)
			}
			seen[p.seq] = true
			comp = keys.XOR(comp, p.component)
			shares = append(shares, p.share)
			if g >= 2 && proto != "threshold" && p.dec != tuples[g-2].Dec {
				t.Errorf("slot %d group %d seq %d: decrease field is not this slot's δ_%d", slot, g, p.seq, g-1)
			}
		}
		if len(seen) != count {
			t.Errorf("slot %d group %d: %d distinct seqs for Count %d", slot, g, len(seen), count)
		}
		var got keys.Key
		switch proto {
		case "flid-ds":
			prefix = keys.XOR(prefix, comp)
			got = prefix
		case "replicated":
			got = comp
		case "threshold":
			v, err := shamir.Reconstruct(shares)
			if err != nil {
				t.Errorf("slot %d group %d: %v", slot, g, err)
				continue
			}
			got = keys.Key(v)
		}
		if got != tuples[g-1].Top {
			t.Errorf("slot %d group %d: fields rebuild key %#x, announced %#x", slot, g, got, tuples[g-1].Top)
		}
	}
}
