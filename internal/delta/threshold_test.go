package delta

import (
	"testing"

	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
	"deltasigma/internal/sim"
)

func newThresholdPair(n int, thresh []float64, seed uint64) (*ThresholdSender, *ThresholdReceiver) {
	rng := sim.NewRNG(seed)
	src := newSource(seed)
	s := NewThresholdSender(n, thresh, src, shamir.NewSplitter(rng.Uint64))
	r := NewThresholdReceiver(n, thresh)
	return s, r
}

func emitThresholdSlot(t *testing.T, s *ThresholdSender, slot uint32, auth []bool, counts []int) (*ThresholdSlot, [][]*packet.FLIDHeader) {
	t.Helper()
	ts, err := s.BeginSlot(slot, auth, counts)
	if err != nil {
		t.Fatal(err)
	}
	inc := uint8(0)
	for a := len(auth); a >= 2; a-- {
		if auth[a-1] {
			inc = uint8(a)
			break
		}
	}
	headers := make([][]*packet.FLIDHeader, len(counts))
	for g := 1; g <= len(counts); g++ {
		for p := 1; p <= counts[g-1]; p++ {
			share, up := ts.Shares(g)
			headers[g-1] = append(headers[g-1], &packet.FLIDHeader{
				Session: 1, Group: uint8(g), Slot: slot,
				Seq: uint16(p), Count: uint16(counts[g-1]), IncreaseTo: inc,
				ShareX: share.X, ShareY: share.Y,
				UpShareX: up.X, UpShareY: up.Y,
			})
		}
	}
	return ts, headers
}

func rlmThresholds(n int) []float64 {
	th := make([]float64, n)
	for i := range th {
		th[i] = 0.25 // RLM's default per-level threshold (§3.1.2)
	}
	return th
}

func TestShareThresholdMath(t *testing.T) {
	s, _ := newThresholdPair(3, rlmThresholds(3), 50)
	// 25% tolerance over 20 packets: need 15.
	if k := s.ShareThreshold(1, 20); k != 15 {
		t.Fatalf("k = %d, want 15", k)
	}
	if k := s.ShareThreshold(1, 1); k != 1 {
		t.Fatalf("k = %d, want 1", k)
	}
	if k := s.ShareThreshold(1, 4); k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
}

func TestThresholdLossWithinToleranceKeepsKey(t *testing.T) {
	s, r := newThresholdPair(3, rlmThresholds(3), 51)
	ts, headers := emitThresholdSlot(t, s, 1, auths(3, 0), countsOf(3, 20))
	r.Begin(1)
	// Drop 4 of 20 packets (20% < 25%) at the top level; lower levels clean.
	for g, hs := range headers {
		for i, h := range hs {
			if g == 2 && i%5 == 0 {
				continue
			}
			r.Observe(h, false)
		}
	}
	out := r.Finish(3, false)
	if out.Congested {
		t.Fatal("20% loss under a 25% threshold should not be congestion")
	}
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3", out.Next)
	}
	for g := 1; g <= 3; g++ {
		if !ts.Keys.Opens(g, keyOf(out, g)) {
			t.Fatalf("key for level %d invalid", g)
		}
	}
}

func TestThresholdLossAboveToleranceDeniesKey(t *testing.T) {
	s, r := newThresholdPair(3, rlmThresholds(3), 52)
	ts, headers := emitThresholdSlot(t, s, 1, auths(3, 0), countsOf(3, 20))
	r.Begin(1)
	// Drop 8 of 20 (40% > 25%) at level 3.
	for g, hs := range headers {
		for i, h := range hs {
			if g == 2 && i < 8 {
				continue
			}
			r.Observe(h, false)
		}
	}
	out := r.Finish(3, false)
	if !out.Congested {
		t.Fatal("40% loss over a 25% threshold must be congestion")
	}
	if out.Next != 2 {
		t.Fatalf("Next = %d, want 2", out.Next)
	}
	if k, ok := out.Key(3); ok && ts.Keys.Opens(3, k) {
		t.Fatal("receiver above threshold still got the level key")
	}
	for g := 1; g <= 2; g++ {
		if !ts.Keys.Opens(g, keyOf(out, g)) {
			t.Fatalf("lower key for level %d invalid", g)
		}
	}
}

func TestThresholdUpgradeKey(t *testing.T) {
	s, r := newThresholdPair(3, rlmThresholds(3), 53)
	ts, headers := emitThresholdSlot(t, s, 1, auths(3, 3), countsOf(3, 20))
	r.Begin(1)
	for g, hs := range headers {
		if g >= 2 {
			break // receiver subscribed to levels 1..2
		}
		for _, h := range hs {
			r.Observe(h, false)
		}
	}
	out := r.Finish(2, false)
	if out.Next != 3 {
		t.Fatalf("Next = %d, want upgrade to 3", out.Next)
	}
	if !ts.Keys.Opens(3, keyOf(out, 3)) {
		t.Fatal("upgrade key invalid")
	}
}

func TestThresholdUpgradeDeniedWhenLossy(t *testing.T) {
	s, r := newThresholdPair(3, rlmThresholds(3), 54)
	ts, headers := emitThresholdSlot(t, s, 1, auths(3, 3), countsOf(3, 20))
	r.Begin(1)
	for g, hs := range headers {
		if g >= 2 {
			break
		}
		for i, h := range hs {
			if g == 1 && i < 8 { // 40% loss at level 2
				continue
			}
			r.Observe(h, false)
		}
	}
	out := r.Finish(2, false)
	if out.Next != 1 {
		t.Fatalf("Next = %d, want 1", out.Next)
	}
	if k, ok := out.Key(3); ok && ts.Keys.Opens(3, k) {
		t.Fatal("lossy receiver obtained the upgrade key")
	}
}

func TestThresholdGradedPerLevel(t *testing.T) {
	// WEBRC-style: tighter thresholds at higher levels. A 15% loss rate is
	// tolerable at level 1 (25%) but congestion at level 3 (10%).
	th := []float64{0.25, 0.15, 0.10}
	s, r := newThresholdPair(3, th, 55)
	ts, headers := emitThresholdSlot(t, s, 1, auths(3, 0), countsOf(3, 20))
	r.Begin(1)
	for g, hs := range headers {
		for i, h := range hs {
			if i < 3 && g <= 2 { // 15% loss at every subscribed level
				continue
			}
			_ = g
			r.Observe(h, false)
		}
	}
	out := r.Finish(3, false)
	if !out.Congested {
		t.Fatal("15% loss over the 10% level-3 threshold must be congestion")
	}
	if out.Next != 2 {
		t.Fatalf("Next = %d, want 2", out.Next)
	}
	for g := 1; g <= 2; g++ {
		if !ts.Keys.Opens(g, keyOf(out, g)) {
			t.Fatalf("key for level %d invalid", g)
		}
	}
}

func TestThresholdNothingReceived(t *testing.T) {
	s, r := newThresholdPair(2, rlmThresholds(2), 56)
	_, _ = emitThresholdSlot(t, s, 1, auths(2, 0), countsOf(2, 10))
	r.Begin(1)
	out := r.Finish(2, false)
	if out.Next != 0 || len(out.Keys) != 0 {
		t.Fatalf("outcome %+v, want nothing", out)
	}
}

func TestThresholdValidation(t *testing.T) {
	rng := sim.NewRNG(57)
	src := newSource(57)
	sp := shamir.NewSplitter(rng.Uint64)
	for _, tc := range []struct {
		n  int
		th []float64
	}{
		{2, []float64{0.25}},       // wrong length
		{2, []float64{0.25, 1.0}},  // threshold out of range
		{2, []float64{-0.1, 0.25}}, // negative
	} {
		func() {
			defer func() { recover() }()
			NewThresholdSender(tc.n, tc.th, src, sp)
			t.Fatalf("NewThresholdSender(%d,%v) should panic", tc.n, tc.th)
		}()
	}
	s := NewThresholdSender(2, rlmThresholds(2), src, sp)
	if _, err := s.BeginSlot(1, auths(2, 0), []int{5, 0}); err == nil {
		t.Fatal("zero-count level should be rejected")
	}
}

func TestThresholdSharesPanicOnOveremission(t *testing.T) {
	s, _ := newThresholdPair(2, rlmThresholds(2), 58)
	ts, err := s.BeginSlot(1, auths(2, 0), countsOf(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	ts.Shares(1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-emission should panic")
		}
	}()
	ts.Shares(1)
}

func BenchmarkThresholdSenderSlot(b *testing.B) {
	rng := sim.NewRNG(60)
	src := newSource(60)
	s := NewThresholdSender(5, rlmThresholds(5), src, shamir.NewSplitter(rng.Uint64))
	auth := auths(5, 3)
	counts := countsOf(5, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := s.BeginSlot(uint32(i), auth, counts)
		if err != nil {
			b.Fatal(err)
		}
		for g := 1; g <= 5; g++ {
			for p := 0; p < 20; p++ {
				ts.Shares(g)
			}
		}
	}
}
