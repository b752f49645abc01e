package threshold

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

func buildRig(capacity int64, thresh []float64, seed uint64) (*topo.Dumbbell, *Sender, *flid.DSReceiver) {
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
	snd := NewSender(src, sess, thresh, policy, d.RNG.Fork(), 2)
	r := NewReceiver(rcv, sess, thresh, d.Right.Addr())
	return d, snd, r
}

func TestThresholdReceiverFindsFairLevel(t *testing.T) {
	// 300 Kbps bottleneck with WEBRC-style graded tolerances: level 4
	// (337 Kbps) runs ~11% loss, inside its ~13% tolerance; level 5
	// (506 Kbps) would run ~40%, far outside. The graded thresholds define
	// a fair level for the loss rate (§3.1.2) — unlike flat-threshold RLM,
	// which oscillates (see TestFlatThresholdOscillates).
	d, snd, r := buildRig(300_000, GradedThresholds(6), 1)
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)

	if r.Level() < 2 || r.Level() > 5 {
		t.Fatalf("level = %d, want near the fair level 4", r.Level())
	}
	avg := r.Meter().AvgKbps(30*sim.Second, 60*sim.Second)
	if avg < 120 || avg > 400 {
		t.Fatalf("throughput %.0f Kbps implausible", avg)
	}
}

func TestFlatThresholdOscillates(t *testing.T) {
	// With RLM's flat 25% tolerance every level looks fine until the
	// receiver overshoots, then several level keys fail at once: the
	// classic RLM instability that motivated graded thresholds. The
	// receiver must keep cycling — never settle above the link, never die.
	d, snd, r := buildRig(300_000, RLMThresholds(6), 4)
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	levels := map[int]bool{}
	for i := 1; i <= 60; i++ {
		d.Sched.RunUntil(sim.Time(i) * sim.Second)
		levels[r.Level()] = true
	}
	if len(levels) < 3 {
		t.Fatalf("flat thresholds settled on %v; expected oscillation", levels)
	}
	avg := r.Meter().AvgKbps(20*sim.Second, 60*sim.Second)
	if avg < 80 {
		t.Fatalf("throughput %.0f Kbps: oscillation starved the receiver", avg)
	}
}

func TestThresholdToleratesMildLoss(t *testing.T) {
	// At 240 Kbps capacity, level 3 (225 Kbps) plus control overhead loses
	// a small percentage — under the 25% tolerance the receiver should
	// hold level 3 rather than yo-yo like a single-loss protocol would.
	d, snd, r := buildRig(240_000, RLMThresholds(6), 2)
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)

	if r.Level() < 2 {
		t.Fatalf("level = %d: threshold protocol collapsed under mild loss", r.Level())
	}
	avg := r.Meter().AvgKbps(30*sim.Second, 60*sim.Second)
	if avg < 130 {
		t.Fatalf("throughput %.0f Kbps too low", avg)
	}
}

func TestGradedThresholdsAreTighterAtTop(t *testing.T) {
	th := GradedThresholds(6)
	if th[0] != 0.25 {
		t.Fatalf("level 1 tolerance = %v, want 0.25", th[0])
	}
	if th[5] >= th[0] {
		t.Fatal("top level must have a tighter tolerance")
	}
	for i := 1; i < len(th); i++ {
		if th[i] > th[i-1] {
			t.Fatal("tolerances must not increase with level")
		}
	}
}

func TestThresholdUncongestedClimbs(t *testing.T) {
	d, snd, r := buildRig(2_000_000, RLMThresholds(6), 3)
	d.Sched.At(0, func() { snd.Start(); r.Start() })
	d.Sched.RunUntil(60 * sim.Second)
	if r.Level() != 6 {
		t.Fatalf("level = %d, want 6 on an uncongested link", r.Level())
	}
	avg := r.Meter().AvgKbps(40*sim.Second, 60*sim.Second)
	if avg < 500 {
		t.Fatalf("throughput %.0f Kbps far below the ~759 Kbps top level", avg)
	}
}
