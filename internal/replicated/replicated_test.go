package replicated

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

func buildRig(capacity int64, seed uint64) (*topo.Tree, *flid.Sender, *Receiver) {
	d := topo.Dumbbell(topo.PaperConfig(capacity, seed))
	src := d.AttachSource("src")
	rcv := d.AttachReceiver("rcv", topo.DefaultDelay).Host
	d.Finish()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))

	sess := &core.Session{
		ID:         1,
		BaseAddr:   packet.MulticastBase,
		Rates:      core.RateSchedule{Base: 100_000, Mult: 1.5, N: 6},
		SlotDur:    slot,
		PacketSize: 576,
	}
	for _, a := range sess.Addrs() {
		d.Multicast().SetSource(a, src.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := flid.NewSender(src, sess, flid.ReplicatedKeying, policy, d.Rand().Fork())
	r := NewReceiver(rcv, sess, d.Routers[1].Addr())
	return d, snd, r
}

func TestReceiverClimbsToSustainableGroup(t *testing.T) {
	// 300 Kbps bottleneck: group 3 streams at 225 Kbps (sustainable),
	// group 4 at 337 Kbps (not).
	d, snd, r := buildRig(300_000, 1)
	d.Scheduler().At(0, func() { snd.Start(); r.Start() })
	d.Scheduler().RunUntil(60 * sim.Second)

	if r.Level() < 2 || r.Level() > 4 {
		t.Fatalf("group = %d, want near 3", r.Level())
	}
	avg := r.Meter().AvgKbps(30*sim.Second, 60*sim.Second)
	if avg < 120 || avg > 360 {
		t.Fatalf("throughput %.0f Kbps implausible for group %d", avg, r.Level())
	}
	if r.Switches == 0 {
		t.Fatal("receiver never switched groups")
	}
}

func TestReceiverHoldsSlowestOnTinyLink(t *testing.T) {
	// 120 Kbps bottleneck: only group 1 (100 Kbps) fits.
	d, snd, r := buildRig(120_000, 2)
	d.Scheduler().At(0, func() { snd.Start(); r.Start() })
	d.Scheduler().RunUntil(45 * sim.Second)

	if r.Level() > 2 {
		t.Fatalf("group = %d on a 120 Kbps link", r.Level())
	}
	avg := r.Meter().AvgKbps(25*sim.Second, 45*sim.Second)
	if avg < 50 {
		t.Fatalf("throughput %.0f Kbps: receiver starved", avg)
	}
}

func TestSingleGroupSubscription(t *testing.T) {
	// A replicated receiver must never hold more than one group's stream:
	// its delivered rate must track a single group's rate, not a sum.
	d, snd, r := buildRig(2_000_000, 3) // uncongested: climbs to the top
	d.Scheduler().At(0, func() { snd.Start(); r.Start() })
	d.Scheduler().RunUntil(60 * sim.Second)

	if r.Level() != 6 {
		t.Fatalf("group = %d, want top group 6 on an uncongested link", r.Level())
	}
	top := float64(759_375) / 1000 // C_6 in Kbps
	avg := r.Meter().AvgKbps(40*sim.Second, 60*sim.Second)
	if avg > 1.15*top {
		t.Fatalf("throughput %.0f Kbps exceeds one stream (%.0f): holding multiple groups", avg, top)
	}
	if avg < 0.7*top {
		t.Fatalf("throughput %.0f Kbps well under the top stream %.0f", avg, top)
	}
}

// Data of an already evaluated slot is stray: metered, never accumulated.
// Data of a live slot claims its ring entry exactly once, whatever entry
// an older slot left there.
func TestAccumulatorRingClaimsBySlot(t *testing.T) {
	_, _, r := buildRig(300_000, 3)
	r.group, r.groups = 1, [2]int32{1, 1} // as Start leaves them
	deliver := func(slot uint32) {
		r.onData(packet.New(0, r.Sess.GroupAddr(1), 576, &packet.ReplHeader{
			Session: r.Sess.ID, Group: 1, Slot: slot, Seq: 1, Count: 2, HasDelta: true,
		}))
	}
	deliver(3)
	deliver(3)
	i := 3 & (accW - 1)
	if r.accTag[i] != 4 {
		t.Fatalf("slot 3 did not claim its ring entry (tag %d)", r.accTag[i])
	}
	if out := r.accs[i].Finish(1, false); out.Congested || out.Next != 1 {
		t.Fatalf("two of two packets accumulated as %+v, want a clean slot", out)
	}
	deliver(3 + accW) // same entry, a later slot: reset, not added to
	if out := r.accs[i].Finish(1, false); r.accTag[i] != 4+accW || !out.Congested {
		t.Fatalf("slot %d reused slot 3's tally: tag %d, outcome %+v", 3+accW, r.accTag[i], out)
	}

	r.joinedSlot = 100
	r.evaluate(3 + accW)
	before := r.accs[i]
	deliver(3 + accW) // a straggler of the slot just evaluated
	deliver(2)        // and one far older
	if r.accs[i] != before || r.accTag[2] != 0 {
		t.Fatal("stray data of an evaluated slot reached an accumulator")
	}
	if r.Meter().TotalBytes() != 5*576 {
		t.Fatalf("meter counted %.0f bytes, want every delivered packet, strays included", r.Meter().TotalBytes())
	}
}
