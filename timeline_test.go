package deltasigma_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"deltasigma"
	"deltasigma/internal/flid"
)

// Membership churn under load: receivers leave while their packets are
// still queued and in flight at the bottleneck. Every pooled reference
// must come back once the traffic drains — the leave path may not leak
// envelopes committed to a receiver that is no longer listening.
func TestTimelineLeaveWhileInFlightDrainsPool(t *testing.T) {
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		pool := &deltasigma.PacketPool{}
		exp := deltasigma.MustNew(
			deltasigma.WithProtocol(proto),
			deltasigma.WithSeed(3),
			deltasigma.WithPacketPool(pool),
			deltasigma.WithTimeline(
				// Mid-slot, deliberately unaligned: packets of the current
				// slot are in the bottleneck queue when the leave fires.
				deltasigma.ReceiverLeave{At: 2*deltasigma.Second + 137*deltasigma.Millisecond, Session: 1, Receiver: 1},
				deltasigma.ReceiverJoin{At: 3 * deltasigma.Second, Session: 1, Receiver: 1},
				deltasigma.ReceiverLeave{At: 4*deltasigma.Second + 61*deltasigma.Millisecond, Session: 1, Receiver: 1},
			),
		)
		sess := exp.AddSession(2)
		exp.Advance(5 * deltasigma.Second)

		r := sess.Receivers[0]
		if r.Joined() {
			t.Errorf("%s: receiver still joined after final leave", proto)
		}
		if sess.Receivers[1].Meter().AvgKbps(0, 5*deltasigma.Second) == 0 {
			t.Errorf("%s: surviving receiver starved by the churn", proto)
		}

		if pool.Issued == 0 {
			t.Fatalf("%s: experiment issued no pooled packets", proto)
		}
		drainAndVerify(t, exp)
	}
}

// Attacker onset must behave at both phases of the slot clock: exactly on
// a slot boundary and mid-slot. Both onsets inflate, and under plain
// FLID-DL both capture bandwidth from the well-behaved receiver.
func TestAttackerOnsetSlotBoundaryVsMidSlot(t *testing.T) {
	slot := 500 * deltasigma.Millisecond
	for name, onset := range map[string]deltasigma.Time{
		"slot-boundary": 8 * slot,           // t = 4 s, exactly slot 8
		"mid-slot":      8*slot + slot*3/10, // t = 4.15 s
	} {
		exp := deltasigma.MustNew(
			deltasigma.WithProtocol("flid-dl"),
			deltasigma.WithSeed(9),
			deltasigma.WithTimeline(deltasigma.AttackerOnset{At: onset, Session: 1}),
		)
		sess := exp.AddSession(1)
		atk := sess.AddAttacker()
		exp.Advance(12 * deltasigma.Second)

		a := atk.Unwrap().(*flid.Inflator)
		if !a.Inflated() {
			t.Fatalf("%s: attacker not inflated after onset at %v", name, onset)
		}
		atkRate := atk.Meter().AvgKbps(6*deltasigma.Second, 12*deltasigma.Second)
		goodRate := sess.Receivers[0].Meter().AvgKbps(6*deltasigma.Second, 12*deltasigma.Second)
		if atkRate <= goodRate {
			t.Errorf("%s: DL attacker at %.0f Kbps did not overtake the well-behaved %.0f Kbps",
				name, atkRate, goodRate)
		}
	}
}

// AttackerStop reverts the attacker to well-behaved congestion control.
func TestAttackerStopDeflates(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithSeed(4),
		deltasigma.WithTimeline(
			deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1},
			deltasigma.AttackerStop{At: 6 * deltasigma.Second, Session: 1},
		),
	)
	sess := exp.AddSession(1)
	atk := sess.AddAttacker()
	exp.Advance(4 * deltasigma.Second)
	a := atk.Unwrap().(*flid.Inflator)
	if !a.Inflated() {
		t.Fatal("attacker not inflated at t=4s")
	}
	exp.Advance(12 * deltasigma.Second)
	if a.Inflated() {
		t.Fatal("attacker still inflated after AttackerStop")
	}
	if !atk.Joined() {
		t.Fatal("deflated attacker should rejoin as a well-behaved receiver")
	}
	if lvl := atk.Level(); lvl < 1 {
		t.Fatalf("deflated attacker level = %d, want >= 1", lvl)
	}
}

// Stopping and restarting a protected attacker must leave exactly one
// guessing loop running: Deflate cancels the pending guessing-slot timer,
// so a restarted attack guesses at the same per-slot rate as one that
// never stopped — not double.
func TestAttackerRestartSingleGuessLoop(t *testing.T) {
	guessesAfter := func(events ...deltasigma.TimelineEvent) uint64 {
		exp := deltasigma.MustNew(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithSeed(11),
			deltasigma.WithTimeline(events...),
		)
		atk := exp.AddSession(1).AddAttacker()
		a := atk.Unwrap().(*flid.KeyAttacker)
		exp.Advance(6 * deltasigma.Second)
		before := a.GuessesSent
		exp.Advance(12 * deltasigma.Second)
		return a.GuessesSent - before
	}
	restarted := guessesAfter(
		deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1},
		deltasigma.AttackerStop{At: 4 * deltasigma.Second, Session: 1},
		deltasigma.AttackerOnset{At: 5 * deltasigma.Second, Session: 1},
	)
	continuous := guessesAfter(
		deltasigma.AttackerOnset{At: 5 * deltasigma.Second, Session: 1},
	)
	if restarted == 0 || continuous == 0 {
		t.Fatalf("vacuous: restarted=%d continuous=%d guesses", restarted, continuous)
	}
	// A leaked second chain would double the rate; entitled-level drift
	// between the runs stays well under 50%.
	if restarted > continuous*3/2 {
		t.Fatalf("restarted attacker sent %d guesses vs %d continuous — a second guessing chain is running", restarted, continuous)
	}
}

// A LinkDown/LinkUp cycle through the timeline discards in-transit packets
// without corrupting the pool, and traffic recovers after the outage.
func TestTimelineLinkOutage(t *testing.T) {
	pool := &deltasigma.PacketPool{}
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithSeed(6),
		deltasigma.WithPacketPool(pool),
		deltasigma.WithTimeline(
			deltasigma.LinkDown{At: 3 * deltasigma.Second, Link: 0},
			deltasigma.LinkUp{At: 4 * deltasigma.Second, Link: 0},
		),
	)
	sess := exp.AddSession(1)
	exp.Advance(10 * deltasigma.Second)

	link := exp.Topo.Bottlenecks()[0]
	if link.DroppedDown == 0 {
		t.Fatal("outage discarded nothing — the link was idle, test is vacuous")
	}
	if link.IsDown() {
		t.Fatal("link still down after LinkUp")
	}
	during := sess.Receivers[0].Meter().AvgKbps(3*deltasigma.Second, 4*deltasigma.Second)
	after := sess.Receivers[0].Meter().AvgKbps(7*deltasigma.Second, 10*deltasigma.Second)
	if after <= during {
		t.Errorf("no recovery after outage: %.0f Kbps during vs %.0f Kbps after", during, after)
	}

	if pool.Issued == 0 {
		t.Fatal("experiment issued no pooled packets")
	}
	drainAndVerify(t, exp)
}

// Poisson churn toggles membership, draws only seeded randomness, and
// replays identically for the same seed.
func TestPoissonChurnDeterministic(t *testing.T) {
	run := func() (uint64, []byte) {
		exp := deltasigma.MustNew(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithSeed(21),
			deltasigma.WithTimeline(
				deltasigma.PoissonChurn{Session: 1, Rate: 2, From: deltasigma.Second, To: 9 * deltasigma.Second},
			),
		)
		exp.AddSession(4)
		res := exp.Run(10 * deltasigma.Second)
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return exp.ChurnEvents(), js
	}
	n1, js1 := run()
	n2, js2 := run()
	if n1 == 0 {
		t.Fatal("churn fired no events over 8 s at rate 2/s")
	}
	if n1 != n2 || !bytes.Equal(js1, js2) {
		t.Fatalf("same seed diverged: %d vs %d churn events, JSON equal=%v", n1, n2, bytes.Equal(js1, js2))
	}
}

// A Manual receiver joins only when its ReceiverJoin event fires.
func TestManualReceiverJoinsByEvent(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithSeed(2),
		deltasigma.WithTimeline(deltasigma.ReceiverJoin{At: 4 * deltasigma.Second, Session: 1, Receiver: 2}),
	)
	sess := exp.AddSession(1)
	late := sess.AddReceiver().Manual()
	exp.Advance(8 * deltasigma.Second)

	if got := late.Meter().AvgKbps(0, 4*deltasigma.Second); got != 0 {
		t.Fatalf("manual receiver got %.1f Kbps before its join event", got)
	}
	if got := late.Meter().AvgKbps(4*deltasigma.Second, 8*deltasigma.Second); got == 0 {
		t.Fatal("manual receiver got nothing after its join event")
	}
}

// A timeline referencing a session, receiver or link that does not exist
// is a wiring bug and panics at Start.
func TestTimelineBadReferencePanics(t *testing.T) {
	for name, ev := range map[string]deltasigma.TimelineEvent{
		"session":      deltasigma.ReceiverLeave{At: 1, Session: 7, Receiver: 1},
		"receiver":     deltasigma.ReceiverLeave{At: 1, Session: 1, Receiver: 9},
		"link":         deltasigma.LinkDown{At: 1, Link: 3},
		"non-attacker": deltasigma.AttackerOnset{At: 1, Session: 1, Receiver: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad reference did not panic at Start", name)
				}
			}()
			exp := deltasigma.MustNew(deltasigma.WithSeed(1), deltasigma.WithTimeline(ev))
			exp.AddSession(1)
			exp.Start()
		}()
	}
}
