package delta

import (
	"testing"

	"deltasigma/internal/packet"
)

// Per-slot DELTA state is reset in place: once a sender or receiver has
// seen one slot, every further slot of the same shape allocates nothing —
// not the slot state, not the key table, not the Shamir coefficients or
// share lists, not the outcome's keys.
func TestWarmSlotAllocatesNothing(t *testing.T) {
	const n, perGroup = 5, 8
	auth, counts := auths(n, 3), countsOf(n, perGroup)

	layered := NewLayeredSender(n, newSource(1))
	_, flidHeaders := emitSlot(t, layered, 1, auth, counts)
	replicated := NewReplicatedSender(n, newSource(2))
	_, replHeaders := emitReplSlot(t, replicated, 1, auth, counts)
	threshold, thresholdRecv := newThresholdPair(n, rlmThresholds(n), 3)
	_, shareHeaders := emitThresholdSlot(t, threshold, 1, auth, counts)
	layeredRecv, replRecv := NewLayeredReceiver(n), NewReplicatedReceiver(n)

	observeAll := func(observe func(h *packet.FLIDHeader, marked bool), headers [][]*packet.FLIDHeader) {
		for _, group := range headers {
			for _, h := range group {
				observe(h, false)
			}
		}
	}
	for _, tc := range []struct {
		name string
		slot func()
	}{
		{"layered sender", func() {
			ls := layered.BeginSlot(2, auth, counts)
			for g := 1; g <= n; g++ {
				for p := 0; p < perGroup; p++ {
					ls.Fields(g)
				}
			}
		}},
		{"replicated sender", func() {
			rs := replicated.BeginSlot(2, auth, counts)
			for g := 1; g <= n; g++ {
				for p := 0; p < perGroup; p++ {
					rs.Fields(g)
				}
			}
		}},
		{"threshold sender", func() {
			ts, err := threshold.BeginSlot(2, auth, counts)
			if err != nil {
				t.Fatal(err)
			}
			for g := 1; g <= n; g++ {
				for p := 0; p < perGroup; p++ {
					ts.Shares(g)
				}
			}
		}},
		{"layered receiver", func() {
			layeredRecv.Begin(1)
			observeAll(layeredRecv.Observe, flidHeaders)
			if out := layeredRecv.Finish(2, false); out.Next != 3 || len(out.Keys) != 3 {
				t.Fatalf("layered outcome %+v, want the upgrade to 3", out)
			}
		}},
		{"replicated receiver", func() {
			replRecv.Begin(1)
			for _, h := range replHeaders[1] {
				replRecv.Observe(h, 2, false)
			}
			if out := replRecv.Finish(2, false); out.Next != 3 || out.First != 2 || len(out.Keys) != 2 {
				t.Fatalf("replicated outcome %+v, want groups 2 and 3", out)
			}
		}},
		{"threshold receiver", func() {
			thresholdRecv.Begin(1)
			observeAll(thresholdRecv.Observe, shareHeaders)
			if out := thresholdRecv.Finish(2, false); out.Next != 3 || len(out.Keys) != 3 {
				t.Fatalf("threshold outcome %+v, want the upgrade to 3", out)
			}
		}},
	} {
		tc.slot() // first use sizes the buffers
		if got := testing.AllocsPerRun(20, tc.slot); got != 0 {
			t.Errorf("%s: a warm slot allocated %.0f times", tc.name, got)
		}
	}
}

// A sender has one slot's state: BeginSlot hands back the same slot, reset.
func TestBeginSlotResetsInPlace(t *testing.T) {
	s := NewLayeredSender(3, newSource(9))
	first := s.BeginSlot(1, auths(3, 3), countsOf(3, 2))
	top := first.Keys.Top[2]
	first.Fields(1)
	second := s.BeginSlot(2, auths(3, 0), countsOf(3, 4))
	if second != first {
		t.Fatal("BeginSlot built a new slot instead of resetting the sender's one")
	}
	if second.Keys.Slot != 2 || second.Keys.Top[2] == top || second.Keys.Auth[2] || second.Keys.Inc[2] != 0 {
		t.Fatalf("slot 2 kept slot 1's keys: %+v", second.Keys)
	}
	for g := 1; g <= 3; g++ {
		for p := 0; p < 4; p++ {
			second.Fields(g) // slot 1's half-spent cursor must not carry over
		}
	}
	if !second.Done() {
		t.Fatal("slot 2's emission cursors were not reset to its own counts")
	}
}
