package replicated

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

func buildRig(capacity int64, seed uint64) (*topo.Dumbbell, *Sender, *Receiver) {
	d := topo.New(topo.PaperConfig(capacity, seed))
	src := d.AddSource("src")
	rcv := d.AddReceiver("rcv")
	d.Done()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Right, sigma.DefaultConfig(slot))

	sess := &core.Session{
		ID:         1,
		BaseAddr:   packet.MulticastBase,
		Rates:      core.RateSchedule{Base: 100_000, Mult: 1.5, N: 6},
		SlotDur:    slot,
		PacketSize: 576,
	}
	for _, a := range sess.Addrs() {
		d.Fabric.SetSource(a, src.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := NewSender(src, sess, policy, d.RNG.Fork(), 2)
	r := NewReceiver(rcv, sess, d.Right.Addr())
	return d, snd, r
}

func TestReceiverClimbsToSustainableGroup(t *testing.T) {
	// 300 Kbps bottleneck: group 3 streams at 225 Kbps (sustainable),
	// group 4 at 337 Kbps (not).
	d, snd, r := buildRig(300_000, 1)
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)

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
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(45 * sim.Second)

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
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)

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
