package deltasigma_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"deltasigma"
	"deltasigma/internal/flid"
)

// TestAttackerFollowsReceiver checks what TryAddAttacker builds for every
// registered row: the row's receiver, turned. Plain-IGMP rows get the
// inflator, SIGMA rows the key attacker, and abr-cf its typed refusal,
// before any host is attached.
func TestAttackerFollowsReceiver(t *testing.T) {
	want := map[string]string{
		"flid-dl": "inflator", "dsc": "inflator", "mfcc": "inflator",
		"flid-ds": "key attacker", "flid-ds-threshold": "key attacker", "flid-ds-replicated": "key attacker",
		"abr-cf": "no attacker",
	}
	if len(want) != len(deltasigma.Protocols()) {
		t.Fatalf("registry %v, table covers %d rows", deltasigma.Protocols(), len(want))
	}
	for _, name := range deltasigma.Protocols() {
		exp := deltasigma.MustNew(deltasigma.WithProtocol(name))
		s := exp.AddSession(0)
		nodes := exp.Topo.Network().NodeCount()
		r, err := s.TryAddAttacker()
		var got string
		var nae *deltasigma.NoAttackerError
		switch {
		case errors.As(err, &nae):
			got = "no attacker"
			if n := exp.Topo.Network().NodeCount(); n != nodes {
				t.Errorf("%s: refused attacker changed the node count %d → %d", name, nodes, n)
			}
		case err != nil:
			t.Fatalf("%s: TryAddAttacker: %v", name, err)
		default:
			switch r.Unwrap().(type) {
			case *flid.Inflator:
				got = "inflator"
			case *flid.KeyAttacker:
				got = "key attacker"
			default:
				got = fmt.Sprintf("%T", r.Unwrap())
			}
		}
		if got != want[name] {
			t.Errorf("%s: TryAddAttacker built %s, want %s", name, got, want[name])
		}
		if deltasigma.ProtocolHasAttacker(name) != (got != "no attacker") {
			t.Errorf("%s: ProtocolHasAttacker = %v, but TryAddAttacker built %s", name, deltasigma.ProtocolHasAttacker(name), got)
		}
	}
}

// TestColludingStrategy wires two colluding attackers with unequal
// entitlements — star spokes of different capacity, so one member's
// legitimate receiver decodes keys for groups the other could never reach
// — and checks the cohort machinery end to end: the shared pool exists,
// taps on the members' legitimate clients capture real keys, and the
// poorer member replays the richer member's keys above its own level.
func TestColludingStrategy(t *testing.T) {
	exp, err := deltasigma.New(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{600_000, 150_000}}),
		deltasigma.WithSeed(3),
		deltasigma.WithTimeline(
			deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1, Receiver: 3},
			deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1, Receiver: 4},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.AddSession(0)
	s.AddReceiver()                                                            // round-robin: fast spoke
	s.AddReceiver()                                                            // slow spoke
	a1 := s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyColluding)) // fast spoke: learns high-group keys
	a2 := s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyColluding)) // slow spoke: replays them
	if a1.Strategy() != deltasigma.StrategyColluding || a2.Strategy() != deltasigma.StrategyColluding {
		t.Fatalf("strategies = %q, %q; want colluding", a1.Strategy(), a2.Strategy())
	}
	pool := s.Collusion()
	if pool == nil || pool.Members() != 2 {
		t.Fatalf("collusion pool = %v, want 2 members", pool)
	}
	exp.Run(12 * deltasigma.Second)

	if pool.KeysLearned == 0 {
		t.Error("collusion tap captured no real keys from the members' legitimate subscriptions")
	}
	if pool.SharedSubmitted == 0 {
		t.Error("no shared keys were replayed by non-entitled members")
	}
}

// TestForgingStrategy checks the feedback-forging attacker: it targets
// same-edge honest receivers with spoofed unsubscribes and floods the
// source with bogus consolidated feedback, and the honest victims end the
// run measurably suppressed relative to an undisturbed session.
func TestForgingStrategy(t *testing.T) {
	exp, err := deltasigma.New(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithDumbbell(500_000),
		deltasigma.WithSeed(3),
		deltasigma.WithTimeline(deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1, Receiver: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.AddSession(0)
	honest := s.AddReceiver()
	atk := s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyForging))
	if atk.Strategy() != deltasigma.StrategyForging || atk.Forge() == nil {
		t.Fatalf("forging attacker not wired: strategy %q, forge %v", atk.Strategy(), atk.Forge())
	}
	exp.Run(12 * deltasigma.Second)

	f := atk.Forge()
	if f.ForgedUnsubscribes == 0 {
		t.Error("forging attacker sent no spoofed unsubscribes")
	}
	if f.ForgedReports == 0 {
		t.Error("forging attacker sent no bogus feedback reports")
	}
	// The victim must actually lose throughput while the attack runs.
	got := honest.Meter().AvgKbps(7*deltasigma.Second, 12*deltasigma.Second)
	if got > 100 {
		t.Errorf("honest receiver still at %.0f Kbps under forged eviction; expected suppression", got)
	}
}

// TestAdaptiveStrategy checks the adaptive attacker's compiled schedule:
// with a scripted churn window it inflates at the window's opening and
// deflates at its close, and AdaptiveOnset predicts the onset.
func TestAdaptiveStrategy(t *testing.T) {
	events := []deltasigma.TimelineEvent{
		deltasigma.PoissonChurn{Session: 1, Rate: 0.5, From: 3 * deltasigma.Second, To: 6 * deltasigma.Second},
	}
	for _, c := range []struct {
		name      string
		events    []deltasigma.TimelineEvent
		onset     deltasigma.Time
		disturbed bool
	}{
		{"the churn window opening", events, 3 * deltasigma.Second, true},
		// With nothing to react to, the fallback onset is early and fixed.
		{"nothing scripted: the 1s fallback", nil, deltasigma.Second, false},
		// An outage alone and the attack's own lifecycle are no trigger.
		{"no disturbance: the 1s fallback", []deltasigma.TimelineEvent{
			deltasigma.LinkDown{At: 2 * deltasigma.Second},
			deltasigma.AttackerStop{At: 3 * deltasigma.Second, Session: 1},
		}, deltasigma.Second, false},
		// A flap window opening before zero counts from zero, as the link
		// does: the first recovery is at 2.2 s, not at 0.
		{"the first flap recovery", []deltasigma.TimelineEvent{
			deltasigma.LinkFlap{Period: 2 * deltasigma.Second, From: -10 * deltasigma.Second, To: 9 * deltasigma.Second},
		}, 2200 * deltasigma.Millisecond, true},
	} {
		if onset, disturbed := deltasigma.AdaptiveOnset(c.events); onset != c.onset || disturbed != c.disturbed {
			t.Errorf("AdaptiveOnset = %v, %v; want %v, %v (%s)", onset, disturbed, c.onset, c.disturbed, c.name)
		}
	}

	exp, err := deltasigma.New(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithDumbbell(500_000),
		deltasigma.WithSeed(3),
		deltasigma.WithTimeline(events...),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.AddSession(0)
	s.AddReceiver()
	s.AddReceiver()
	atk := s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyAdaptive))

	exp.Advance(2 * deltasigma.Second)
	if atk.Inflated() {
		t.Fatal("adaptive attacker inflated before the disturbance window")
	}
	exp.Advance(4 * deltasigma.Second)
	if !atk.Inflated() {
		t.Fatal("adaptive attacker idle inside the churn window")
	}
	exp.Advance(7 * deltasigma.Second)
	if atk.Inflated() {
		t.Fatal("adaptive attacker still inflated after the window closed")
	}
}

// TestStrategyDegradesOnUnprotected: without a SIGMA control plane there
// is nothing to collude against or forge into, so those strategies run
// the classic inflator (which already wins outright on FLID-DL).
func TestStrategyDegradesOnUnprotected(t *testing.T) {
	exp, err := deltasigma.New(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithDumbbell(500_000),
		deltasigma.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.AddSession(0)
	s.AddReceiver()
	for _, st := range []deltasigma.AttackerStrategy{deltasigma.StrategyColluding, deltasigma.StrategyForging} {
		if got := s.AddAttacker(deltasigma.WithStrategy(st)).Strategy(); got != deltasigma.StrategyClassic {
			t.Errorf("%s on flid-dl runs %q, want degraded to classic", st, got)
		}
	}
}

// TestStrategyForcesSerialSharding: non-classic strategies mutate
// cross-shard state, so a sharded experiment refuses them with an error,
// and the same attacker runs on an explicitly serial one.
func TestStrategyForcesSerialSharding(t *testing.T) {
	for _, shards := range []int{4, 1} {
		exp, err := deltasigma.New(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithDumbbell(500_000),
			deltasigma.WithSeed(3),
			deltasigma.WithShards(shards),
		)
		if err != nil {
			t.Fatal(err)
		}
		s := exp.AddSession(0)
		_, err = s.TryAddAttacker(deltasigma.WithStrategy(deltasigma.StrategyColluding))
		if shards > 1 {
			if err == nil || !strings.Contains(err.Error(), "WithShards(4)") {
				t.Fatalf("colluding attacker on WithShards(4): error = %v, want a refusal", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		s.AddReceiver()
		exp.Run(2 * deltasigma.Second)
	}
}

// TestUnknownStrategyIsTypedError: a strategy name outside the catalog —
// a hand-edited spec, say — comes back from TryAddAttacker as an
// *UnknownStrategyError before anything is attached, and an attacker at an
// explicit port lands where it was put.
func TestUnknownStrategyIsTypedError(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{500_000, 500_000}}), deltasigma.WithSeed(3))
	s := exp.AddSession(1)
	_, err := s.TryAddAttacker(deltasigma.WithStrategy("bribery"))
	var use *deltasigma.UnknownStrategyError
	if !errors.As(err, &use) || use.Strategy != "bribery" {
		t.Fatalf("TryAddAttacker(unknown strategy) = %v, want *UnknownStrategyError", err)
	}
	if len(s.Receivers) != 1 {
		t.Fatalf("%d receivers after a refused attacker, want the 1 honest one", len(s.Receivers))
	}
	port := exp.Topo.AttachReceiverAt(2, "", deltasigma.DefaultDelay) // spoke 1
	atk := s.AddAttacker(deltasigma.AtPort(port), deltasigma.WithStrategy(deltasigma.StrategyForging))
	if !atk.Attacker() || atk.Strategy() != deltasigma.StrategyForging || atk.Forge() == nil {
		t.Fatalf("attacker at an explicit port: attacker=%v strategy=%q", atk.Attacker(), atk.Strategy())
	}
}
