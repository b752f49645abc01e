package delta

import (
	"testing"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// newFigure5Sender builds the Figure 5 sender: a LayeredSender keying
// each group with its own secret.
func newFigure5Sender(n int, src *keys.Source) *LayeredSender {
	s := NewLayeredSender(n, src)
	s.Replicated = true
	return s
}

func emitReplSlot(t *testing.T, s *LayeredSender, slot uint32, auth []bool, counts []int) (*LayeredSlot, [][]*packet.ReplHeader) {
	t.Helper()
	rs := s.BeginSlot(slot, auth, counts)
	inc := uint8(0)
	for a := len(auth); a >= 2; a-- {
		if auth[a-1] {
			inc = uint8(a)
			break
		}
	}
	headers := make([][]*packet.ReplHeader, len(counts))
	for g := 1; g <= len(counts); g++ {
		for p := 1; p <= counts[g-1]; p++ {
			comp, dec := rs.Fields(g)
			headers[g-1] = append(headers[g-1], &packet.ReplHeader{
				Session: 1, Group: uint8(g), Slot: slot,
				Seq: uint16(p), Count: uint16(counts[g-1]), IncreaseTo: inc,
				HasDelta: true, Component: comp, Decrease: dec,
			})
		}
	}
	if !rs.Done() {
		t.Fatal("sender slot not done")
	}
	return rs, headers
}

func TestReplicatedTopKeyIsPerGroup(t *testing.T) {
	s := newFigure5Sender(4, newSource(30))
	rs, headers := emitReplSlot(t, s, 1, auths(4, 0), countsOf(4, 3))
	for g := 1; g <= 4; g++ {
		var acc keys.Key
		for _, h := range headers[g-1] {
			acc = keys.XOR(acc, h.Component)
		}
		if acc != rs.Keys.Top[g-1] {
			t.Fatalf("group %d: components XOR to %v, α_%d is %v", g, acc, g, rs.Keys.Top[g-1])
		}
	}
	// Unlike the layered case, α_2 must NOT include group 1's components.
	var crossAcc keys.Key
	for _, h := range headers[0] {
		crossAcc = keys.XOR(crossAcc, h.Component)
	}
	for _, h := range headers[1] {
		crossAcc = keys.XOR(crossAcc, h.Component)
	}
	if crossAcc == rs.Keys.Top[1] {
		t.Fatal("replicated top key looks cumulative")
	}
}

func TestReplicatedUncongestedStays(t *testing.T) {
	s := newFigure5Sender(3, newSource(31))
	rs, headers := emitReplSlot(t, s, 1, auths(3, 0), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	for _, h := range headers[1] { // receiver of group 2
		r.Observe(h, 2, false)
	}
	out := r.Finish(2, false)
	if out.Congested || out.Next != 2 {
		t.Fatalf("outcome %+v, want uncongested stay at 2", out)
	}
	if !rs.Keys.Opens(2, keyOf(out, 2)) {
		t.Fatal("key does not open group 2")
	}
}

func TestReplicatedUpgradeSwitchesUp(t *testing.T) {
	s := newFigure5Sender(3, newSource(32))
	rs, headers := emitReplSlot(t, s, 1, auths(3, 3), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	for _, h := range headers[1] {
		r.Observe(h, 2, false)
	}
	out := r.Finish(2, false)
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3", out.Next)
	}
	up, _ := out.Key(3)
	if !rs.Keys.Opens(3, up) {
		t.Fatal("upgrade key does not open group 3")
	}
	// ε_3 = α_2: the same reconstructed value.
	if cur, ok := out.Key(2); !ok || up != cur {
		t.Fatal("replicated upgrade key should equal the current top key")
	}
}

func TestReplicatedCongestedStepsDown(t *testing.T) {
	s := newFigure5Sender(3, newSource(33))
	rs, headers := emitReplSlot(t, s, 1, auths(3, 0), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	for i, h := range headers[2] { // group 3, drop one packet
		if i == 1 {
			continue
		}
		r.Observe(h, 3, false)
	}
	out := r.Finish(3, false)
	if !out.Congested || out.Next != 2 {
		t.Fatalf("outcome %+v, want congested step down to 2", out)
	}
	if !rs.Keys.Opens(2, keyOf(out, 2)) {
		t.Fatal("decrease key does not open group 2")
	}
	if k, ok := out.Key(3); ok && rs.Keys.Opens(3, k) {
		t.Fatal("congested receiver still opened its group")
	}
}

func TestReplicatedCongestedAtMinimalLeaves(t *testing.T) {
	s := newFigure5Sender(3, newSource(34))
	_, headers := emitReplSlot(t, s, 1, auths(3, 0), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	for i, h := range headers[0] {
		if i == 0 {
			continue
		}
		r.Observe(h, 1, false)
	}
	out := r.Finish(1, false)
	if out.Next != 0 {
		t.Fatalf("Next = %d, want 0", out.Next)
	}
}

func TestReplicatedTotalLossLeavesSession(t *testing.T) {
	s := newFigure5Sender(3, newSource(35))
	_, _ = emitReplSlot(t, s, 1, auths(3, 0), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	out := r.Finish(3, false) // nothing received: no decrease field either
	if out.Next != 0 {
		t.Fatalf("Next = %d, want 0 (no decrease key available)", out.Next)
	}
}

func TestReplicatedECNMode(t *testing.T) {
	s := newFigure5Sender(3, newSource(36))
	rs, headers := emitReplSlot(t, s, 1, auths(3, 0), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	nonce := newSource(97).Nonce()
	for i, h := range headers[1] {
		if i == 0 {
			r.Observe(ScrubComponent(h, nonce).(*packet.ReplHeader), 2, true)
			continue
		}
		r.Observe(h, 2, false)
	}
	out := r.Finish(2, true)
	if !out.Congested || out.Next != 1 {
		t.Fatalf("outcome %+v, want ECN-congested step down", out)
	}
	if !rs.Keys.Opens(1, keyOf(out, 1)) {
		t.Fatal("decrease key invalid after ECN scrub")
	}
}

func TestReplicatedObserveFiltersGroupAndSlot(t *testing.T) {
	s := newFigure5Sender(3, newSource(37))
	_, headers := emitReplSlot(t, s, 1, auths(3, 0), countsOf(3, 4))
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	for _, h := range headers[0] {
		r.Observe(h, 2, false) // receiver is in group 2; group 1 ignored
	}
	out := r.Finish(2, false)
	if !out.Congested {
		t.Fatal("receiver should look congested: none of its group's packets arrived")
	}
}

func TestReplicatedFinishValidation(t *testing.T) {
	r := NewReplicatedReceiver(3)
	r.Begin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Finish(0) should panic")
		}
	}()
	r.Finish(0, false)
}
