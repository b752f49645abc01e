package flid

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// dlSender builds the FLID-DL source: the bare slot loop, each group paced
// at its own rate.
func dlSender(host *netsim.Host, sess *core.Session, policy core.PeriodicUpgrades, rng *sim.RNG) *core.SlotSender {
	return core.NewSlotSender(host, sess, sess.Rates.N, policy, rng, core.SenderHooks{Rate: sess.Rates.GroupRate})
}

// session builds the §5.1 paper session descriptor.
func session(id uint16, slot sim.Time) *core.Session {
	return &core.Session{
		ID:         id,
		BaseAddr:   packet.MulticastBase + packet.Addr(int(id)*32),
		Rates:      core.PaperSchedule(),
		SlotDur:    slot,
		PacketSize: 576,
	}
}

func TestSingleDLReceiverConvergesToFairLevel(t *testing.T) {
	d := topo.Dumbbell(topo.PaperConfig(250_000, 1))
	srcHost := d.AttachSource("src")
	rcv := d.AttachReceiver("rcv", topo.DefaultDelay).Host
	d.Finish()
	mcast.NewIGMP(d.Routers[1])

	sess := session(1, 500*sim.Millisecond)
	for _, a := range sess.Addrs() {
		d.Multicast().SetSource(a, srcHost.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := dlSender(srcHost, sess, policy, d.Rand().Fork())
	r := NewReceiver(rcv, sess, d.Routers[1].Addr(), FLIDRule)

	d.Scheduler().At(0, func() { snd.Start(); r.Start() })
	d.Scheduler().RunUntil(60 * sim.Second)

	// Fair level for 250 Kbps is 3 (C_3 = 225 Kbps).
	if r.Level() < 2 || r.Level() > 4 {
		t.Fatalf("level = %d, want near fair level 3", r.Level())
	}
	avg := r.Meter().AvgKbps(30*sim.Second, 60*sim.Second)
	if avg < 130 || avg > 260 {
		t.Fatalf("steady throughput %.0f Kbps, want roughly the 225 Kbps fair level", avg)
	}
	if r.Increases == 0 {
		t.Fatal("receiver never climbed")
	}
}

func TestSingleDSReceiverConvergesToFairLevel(t *testing.T) {
	d := topo.Dumbbell(topo.PaperConfig(250_000, 2))
	srcHost := d.AttachSource("src")
	rcv := d.AttachReceiver("rcv", topo.DefaultDelay).Host
	d.Finish()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))

	sess := session(1, slot)
	for _, a := range sess.Addrs() {
		d.Multicast().SetSource(a, srcHost.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := NewSender(srcHost, sess, LayeredKeying, policy, d.Rand().Fork())
	r := NewDSReceiver(rcv, sess, d.Routers[1].Addr(), Layered)

	d.Scheduler().At(0, func() { snd.Start(); r.Start() })
	d.Scheduler().RunUntil(60 * sim.Second)

	if r.Level() < 2 || r.Level() > 4 {
		t.Fatalf("level = %d, want near fair level 3", r.Level())
	}
	avg := r.Meter().AvgKbps(30*sim.Second, 60*sim.Second)
	if avg < 130 || avg > 260 {
		t.Fatalf("steady throughput %.0f Kbps, want roughly the 225 Kbps fair level", avg)
	}
}

func TestDLAndDSComparableThroughput(t *testing.T) {
	run := func(protected bool, seed uint64) float64 {
		d := topo.Dumbbell(topo.PaperConfig(250_000, seed))
		srcHost := d.AttachSource("src")
		rcv := d.AttachReceiver("rcv", topo.DefaultDelay).Host
		d.Finish()
		var slot sim.Time
		if !protected {
			slot = 500 * sim.Millisecond
			mcast.NewIGMP(d.Routers[1])
		} else {
			slot = 250 * sim.Millisecond
			sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))
		}
		sess := session(1, slot)
		for _, a := range sess.Addrs() {
			d.Multicast().SetSource(a, srcHost.ID())
		}
		policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
		var meter interface {
			AvgKbps(from, to sim.Time) float64
		}
		if !protected {
			snd := dlSender(srcHost, sess, policy, d.Rand().Fork())
			r := NewReceiver(rcv, sess, d.Routers[1].Addr(), FLIDRule)
			d.Scheduler().At(0, func() { snd.Start(); r.Start() })
			meter = r.Meter()
		} else {
			snd := NewSender(srcHost, sess, LayeredKeying, policy, d.Rand().Fork())
			r := NewDSReceiver(rcv, sess, d.Routers[1].Addr(), Layered)
			d.Scheduler().At(0, func() { snd.Start(); r.Start() })
			meter = r.Meter()
		}
		d.Scheduler().RunUntil(60 * sim.Second)
		return meter.AvgKbps(30*sim.Second, 60*sim.Second)
	}
	dl := run(false, 11)
	ds := run(true, 11)
	if dl == 0 || ds == 0 {
		t.Fatalf("dead session: dl=%.0f ds=%.0f", dl, ds)
	}
	ratio := ds / dl
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("FLID-DS throughput %.0f vs FLID-DL %.0f Kbps: protection should not change throughput", ds, dl)
	}
}

func TestInflatedSubscriptionBoostsDLAttacker(t *testing.T) {
	// Two FLID-DL sessions on a 500 Kbps bottleneck; receiver 1 inflates
	// at t=30 s and must grab most of the link.
	d := topo.Dumbbell(topo.PaperConfig(500_000, 3))
	src1 := d.AttachSource("src1")
	src2 := d.AttachSource("src2")
	r1h := d.AttachReceiver("r1", topo.DefaultDelay).Host
	r2h := d.AttachReceiver("r2", topo.DefaultDelay).Host
	d.Finish()
	mcast.NewIGMP(d.Routers[1])

	s1 := session(1, 500*sim.Millisecond)
	s2 := session(2, 500*sim.Millisecond)
	for _, a := range s1.Addrs() {
		d.Multicast().SetSource(a, src1.ID())
	}
	for _, a := range s2.Addrs() {
		d.Multicast().SetSource(a, src2.ID())
	}
	policy1 := core.PeriodicUpgrades{Factor: 2, N: s1.Rates.N}
	snd1 := dlSender(src1, s1, policy1, d.Rand().Fork())
	snd2 := dlSender(src2, s2, policy1, d.Rand().Fork())
	atk := NewInflator(NewReceiver(r1h, s1, d.Routers[1].Addr(), FLIDRule))
	good := NewReceiver(r2h, s2, d.Routers[1].Addr(), FLIDRule)

	d.Scheduler().At(0, func() { snd1.Start(); snd2.Start(); atk.Start(); good.Start() })
	d.Scheduler().At(30*sim.Second, func() { atk.Inflate() })
	d.Scheduler().RunUntil(90 * sim.Second)

	atkBefore := atk.Meter().AvgKbps(15*sim.Second, 30*sim.Second)
	atkAfter := atk.Meter().AvgKbps(60*sim.Second, 90*sim.Second)
	goodAfter := good.Meter().AvgKbps(60*sim.Second, 90*sim.Second)

	if atkAfter < 1.5*atkBefore {
		t.Fatalf("attack ineffective: %.0f -> %.0f Kbps", atkBefore, atkAfter)
	}
	if atkAfter < 2*goodAfter {
		t.Fatalf("attacker %.0f Kbps vs victim %.0f Kbps: attacker should dominate", atkAfter, goodAfter)
	}
}

func TestDSPreventsInflatedSubscription(t *testing.T) {
	// Same scenario, FLID-DS: the attacker's inflation attempts must not
	// raise its throughput above its fair share.
	d := topo.Dumbbell(topo.PaperConfig(500_000, 4))
	src1 := d.AttachSource("src1")
	src2 := d.AttachSource("src2")
	r1h := d.AttachReceiver("r1", topo.DefaultDelay).Host
	r2h := d.AttachReceiver("r2", topo.DefaultDelay).Host
	d.Finish()
	slot := 250 * sim.Millisecond
	ctl := sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))

	s1 := session(1, slot)
	s2 := session(2, slot)
	for _, a := range s1.Addrs() {
		d.Multicast().SetSource(a, src1.ID())
	}
	for _, a := range s2.Addrs() {
		d.Multicast().SetSource(a, src2.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: s1.Rates.N}
	snd1 := NewSender(src1, s1, LayeredKeying, policy, d.Rand().Fork())
	snd2 := NewSender(src2, s2, LayeredKeying, policy, d.Rand().Fork())
	atk := NewKeyAttacker(s1, NewDSReceiver(r1h, s1, d.Routers[1].Addr(), Layered), d.Rand().Fork())
	good := NewDSReceiver(r2h, s2, d.Routers[1].Addr(), Layered)

	d.Scheduler().At(0, func() { snd1.Start(); snd2.Start(); atk.Start(); good.Start() })
	d.Scheduler().At(30*sim.Second, func() { atk.Inflate() })
	d.Scheduler().RunUntil(90 * sim.Second)

	atkAfter := atk.Meter().AvgKbps(60*sim.Second, 90*sim.Second)
	goodAfter := good.Meter().AvgKbps(60*sim.Second, 90*sim.Second)

	// Fair share is 250 Kbps each → fair level 3 = 225 Kbps. The attacker
	// must stay near it and must not dominate the victim.
	if atkAfter > 350 {
		t.Fatalf("attacker exceeded fair share: %.0f Kbps", atkAfter)
	}
	if goodAfter < 100 {
		t.Fatalf("victim starved at %.0f Kbps despite protection", goodAfter)
	}
	if atkAfter > 2*goodAfter {
		t.Fatalf("attacker %.0f Kbps vs victim %.0f: protection failed", atkAfter, goodAfter)
	}
	if atk.GuessesSent == 0 {
		t.Fatal("attacker never attacked")
	}
	// The gatekeeper should have refused the attacker's guesses.
	if ctl.InvalidKeys == 0 {
		t.Fatal("guessing attack left no invalid keys at the gatekeeper")
	}
}

func TestTwoDSReceiversConvergeTogether(t *testing.T) {
	d := topo.Dumbbell(topo.PaperConfig(250_000, 5))
	srcHost := d.AttachSource("src")
	r1h := d.AttachReceiver("r1", topo.DefaultDelay).Host
	r2h := d.AttachReceiver("r2", topo.DefaultDelay).Host
	d.Finish()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))

	sess := session(1, slot)
	for _, a := range sess.Addrs() {
		d.Multicast().SetSource(a, srcHost.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := NewSender(srcHost, sess, LayeredKeying, policy, d.Rand().Fork())
	r1 := NewDSReceiver(r1h, sess, d.Routers[1].Addr(), Layered)
	r2 := NewDSReceiver(r2h, sess, d.Routers[1].Addr(), Layered)

	d.Scheduler().At(0, func() { snd.Start(); r1.Start() })
	d.Scheduler().At(10*sim.Second, func() { r2.Start() })
	d.Scheduler().RunUntil(60 * sim.Second)

	if r1.Level() != r2.Level() {
		t.Fatalf("receivers did not converge: %d vs %d", r1.Level(), r2.Level())
	}
	a1 := r1.Meter().AvgKbps(40*sim.Second, 60*sim.Second)
	a2 := r2.Meter().AvgKbps(40*sim.Second, 60*sim.Second)
	if a1 == 0 || a2 == 0 {
		t.Fatalf("dead receivers: %.0f / %.0f", a1, a2)
	}
	diff := a1 - a2
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.25*a1 {
		t.Fatalf("throughputs diverge: %.0f vs %.0f Kbps", a1, a2)
	}
}
