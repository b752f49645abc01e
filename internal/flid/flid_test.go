package flid

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/mcast"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

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
	d := topo.New(topo.PaperConfig(250_000, 1))
	srcHost := d.AddSource("src")
	rcv := d.AddReceiver("rcv")
	d.Done()
	mcast.NewIGMP(d.Right)

	sess := session(1, 500*sim.Millisecond)
	for _, a := range sess.Addrs() {
		d.Fabric.SetSource(a, srcHost.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := NewSender(srcHost, sess, DL, policy, d.RNG.Fork(), nil, 0)
	r := NewReceiver(rcv, sess, d.Right.Addr(), FLIDRule)

	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)

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
	d := topo.New(topo.PaperConfig(250_000, 2))
	srcHost := d.AddSource("src")
	rcv := d.AddReceiver("rcv")
	d.Done()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Right, sigma.DefaultConfig(slot))

	sess := session(1, slot)
	for _, a := range sess.Addrs() {
		d.Fabric.SetSource(a, srcHost.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := NewSender(srcHost, sess, DS, policy, d.RNG.Fork(), nil, 2)
	r := NewDSReceiver(rcv, sess, d.Right.Addr(), Layered)

	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)

	if r.Level() < 2 || r.Level() > 4 {
		t.Fatalf("level = %d, want near fair level 3", r.Level())
	}
	avg := r.Meter().AvgKbps(30*sim.Second, 60*sim.Second)
	if avg < 130 || avg > 260 {
		t.Fatalf("steady throughput %.0f Kbps, want roughly the 225 Kbps fair level", avg)
	}
}

func TestDLAndDSComparableThroughput(t *testing.T) {
	run := func(mode Mode, seed uint64) float64 {
		d := topo.New(topo.PaperConfig(250_000, seed))
		srcHost := d.AddSource("src")
		rcv := d.AddReceiver("rcv")
		d.Done()
		var slot sim.Time
		if mode == DL {
			slot = 500 * sim.Millisecond
			mcast.NewIGMP(d.Right)
		} else {
			slot = 250 * sim.Millisecond
			sigma.NewController(d.Right, sigma.DefaultConfig(slot))
		}
		sess := session(1, slot)
		for _, a := range sess.Addrs() {
			d.Fabric.SetSource(a, srcHost.ID())
		}
		policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
		snd := NewSender(srcHost, sess, mode, policy, d.RNG.Fork(), nil, 2)
		var meter interface {
			AvgKbps(from, to sim.Time) float64
		}
		if mode == DL {
			r := NewReceiver(rcv, sess, d.Right.Addr(), FLIDRule)
			d.Sched.At(0, func() { snd.Start(); r.Start() })
			meter = r.Meter()
		} else {
			r := NewDSReceiver(rcv, sess, d.Right.Addr(), Layered)
			d.Sched.At(0, func() { snd.Start(); r.Start() })
			meter = r.Meter()
		}
		d.Sched.RunUntil(60 * sim.Second)
		return meter.AvgKbps(30*sim.Second, 60*sim.Second)
	}
	dl := run(DL, 11)
	ds := run(DS, 11)
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
	d := topo.New(topo.PaperConfig(500_000, 3))
	src1 := d.AddSource("src1")
	src2 := d.AddSource("src2")
	r1h := d.AddReceiver("r1")
	r2h := d.AddReceiver("r2")
	d.Done()
	mcast.NewIGMP(d.Right)

	s1 := session(1, 500*sim.Millisecond)
	s2 := session(2, 500*sim.Millisecond)
	for _, a := range s1.Addrs() {
		d.Fabric.SetSource(a, src1.ID())
	}
	for _, a := range s2.Addrs() {
		d.Fabric.SetSource(a, src2.ID())
	}
	policy1 := core.PeriodicUpgrades{Factor: 2, N: s1.Rates.N}
	snd1 := NewSender(src1, s1, DL, policy1, d.RNG.Fork(), nil, 0)
	snd2 := NewSender(src2, s2, DL, policy1, d.RNG.Fork(), nil, 0)
	atk := NewInflator(NewReceiver(r1h, s1, d.Right.Addr(), FLIDRule))
	good := NewReceiver(r2h, s2, d.Right.Addr(), FLIDRule)

	d.Sched.At(0, func() { snd1.Start(); snd2.Start(); atk.Start(); good.Start() })
	d.Sched.At(30*sim.Second, func() { atk.Inflate() })
	d.Sched.RunUntil(90 * sim.Second)

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
	d := topo.New(topo.PaperConfig(500_000, 4))
	src1 := d.AddSource("src1")
	src2 := d.AddSource("src2")
	r1h := d.AddReceiver("r1")
	r2h := d.AddReceiver("r2")
	d.Done()
	slot := 250 * sim.Millisecond
	ctl := sigma.NewController(d.Right, sigma.DefaultConfig(slot))

	s1 := session(1, slot)
	s2 := session(2, slot)
	for _, a := range s1.Addrs() {
		d.Fabric.SetSource(a, src1.ID())
	}
	for _, a := range s2.Addrs() {
		d.Fabric.SetSource(a, src2.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: s1.Rates.N}
	snd1 := NewSender(src1, s1, DS, policy, d.RNG.Fork(), nil, 2)
	snd2 := NewSender(src2, s2, DS, policy, d.RNG.Fork(), nil, 2)
	atk := NewDSAttacker(NewDSReceiver(r1h, s1, d.Right.Addr(), Layered), d.RNG.Fork())
	good := NewDSReceiver(r2h, s2, d.Right.Addr(), Layered)

	d.Sched.At(0, func() { snd1.Start(); snd2.Start(); atk.Start(); good.Start() })
	d.Sched.At(30*sim.Second, func() { atk.Inflate() })
	d.Sched.RunUntil(90 * sim.Second)

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
	// The guess tally should have registered the attack on some group.
	tallied := false
	for g := 1; g <= s1.Rates.N; g++ {
		if ctl.GuessCount(s1.GroupAddr(g), r1h.Addr()) > 0 {
			tallied = true
			break
		}
	}
	if !tallied {
		t.Fatal("guessing attack left no tally")
	}
}

func TestTwoDSReceiversConvergeTogether(t *testing.T) {
	d := topo.New(topo.PaperConfig(250_000, 5))
	srcHost := d.AddSource("src")
	r1h := d.AddReceiver("r1")
	r2h := d.AddReceiver("r2")
	d.Done()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Right, sigma.DefaultConfig(slot))

	sess := session(1, slot)
	for _, a := range sess.Addrs() {
		d.Fabric.SetSource(a, srcHost.ID())
	}
	policy := core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
	snd := NewSender(srcHost, sess, DS, policy, d.RNG.Fork(), nil, 2)
	r1 := NewDSReceiver(r1h, sess, d.Right.Addr(), Layered)
	r2 := NewDSReceiver(r2h, sess, d.Right.Addr(), Layered)

	d.Sched.At(0, func() { snd.Start(); r1.Start() })
	d.Sched.At(10*sim.Second, func() { r2.Start() })
	d.Sched.RunUntil(60 * sim.Second)

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
