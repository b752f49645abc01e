package delta

import (
	"testing"
	"testing/quick"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

func newSource(seed uint64) *keys.Source {
	return keys.NewSource(keys.DefaultBits, sim.NewRNG(seed).Uint64)
}

// emitSlot runs a full sender slot and returns the generated headers, one
// per packet, ordered group by group.
func emitSlot(t *testing.T, s *LayeredSender, slot uint32, auth []bool, counts []int) (*LayeredSlot, [][]*packet.FLIDHeader) {
	t.Helper()
	ls := s.BeginSlot(slot, auth, counts)
	headers := make([][]*packet.FLIDHeader, len(counts))
	for g := 1; g <= len(counts); g++ {
		inc := uint8(0)
		for a := len(auth); a >= 2; a-- {
			if auth[a-1] {
				inc = uint8(a)
				break
			}
		}
		for p := 1; p <= counts[g-1]; p++ {
			comp, dec := ls.Fields(g)
			headers[g-1] = append(headers[g-1], &packet.FLIDHeader{
				Session: 1, Group: uint8(g), Slot: slot,
				Seq: uint16(p), Count: uint16(counts[g-1]), IncreaseTo: inc,
				HasDelta: true, Component: comp, Decrease: dec,
			})
		}
	}
	if !ls.Done() {
		t.Fatal("sender slot not done after emitting all packets")
	}
	return ls, headers
}

// deliver feeds headers to a receiver, dropping (group,seq) pairs in drop.
func deliver(r *LayeredReceiver, headers [][]*packet.FLIDHeader, drop map[[2]int]bool) {
	for g, hs := range headers {
		for _, h := range hs {
			if drop[[2]int{g + 1, int(h.Seq)}] {
				continue
			}
			r.Observe(h, false)
		}
	}
}

// Done reports whether every scheduled packet of every group has had its
// fields handed out.
func (ls *LayeredSlot) Done() bool {
	for g, comps := range ls.comps {
		if ls.next[g] != len(comps) {
			return false
		}
	}
	return true
}

// Received reports how many packets arrived for group g this slot.
func (r *LayeredReceiver) Received(g int) int { return r.groups[g-1].got }

func auths(n int, upTo int) []bool {
	a := make([]bool, n)
	for g := 2; g <= upTo && g <= n; g++ {
		a[g-1] = true
	}
	return a
}

func countsOf(n int, c int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// keyOf is the outcome's key for group g, zero when it holds none.
func keyOf(out Outcome, g int) keys.Key {
	k, _ := out.Key(g)
	return k
}

// verifyKeys asserts every key in the outcome opens its group.
func verifyKeys(t *testing.T, sk *SlotKeys, out Outcome) {
	t.Helper()
	for i, k := range out.Keys {
		if g := out.First + i; !sk.Opens(g, k) {
			t.Fatalf("outcome key for group %d (%v) does not open the group", g, k)
		}
	}
	for g := 1; g <= out.Next; g++ {
		if _, ok := out.Key(g); !ok {
			t.Fatalf("entitled to group %d but no key provided", g)
		}
	}
}

func TestSenderComponentAlgebra(t *testing.T) {
	s := NewLayeredSender(5, newSource(1))
	ls, headers := emitSlot(t, s, 7, auths(5, 0), countsOf(5, 4))
	// XOR of all components of groups 1..g must equal α_g (Eq. 3).
	var acc keys.Key
	for g := 1; g <= 5; g++ {
		for _, h := range headers[g-1] {
			acc = keys.XOR(acc, h.Component)
		}
		if acc != ls.Keys.Top[g-1] {
			t.Fatalf("α_%d mismatch: components XOR to %v, key is %v", g, acc, ls.Keys.Top[g-1])
		}
	}
	// Every packet of group g carries d_g = δ_{g-1}.
	for g := 2; g <= 5; g++ {
		for _, h := range headers[g-1] {
			if h.Decrease != ls.Keys.Dec[g-2] {
				t.Fatalf("group %d decrease field %v != δ_%d %v", g, h.Decrease, g-1, ls.Keys.Dec[g-2])
			}
		}
	}
	// Group 1 carries no decrease field.
	for _, h := range headers[0] {
		if h.Decrease != 0 {
			t.Fatalf("group 1 decrease field should be zero, got %v", h.Decrease)
		}
	}
}

func TestIncreaseKeyIsLowerTopKey(t *testing.T) {
	s := NewLayeredSender(4, newSource(2))
	ls, _ := emitSlot(t, s, 1, auths(4, 4), countsOf(4, 3))
	for g := 2; g <= 4; g++ {
		if !ls.Keys.Auth[g-1] {
			t.Fatalf("upgrade to %d should be authorized", g)
		}
		if ls.Keys.Inc[g-1] != ls.Keys.Top[g-2] {
			t.Fatalf("ε_%d != α_%d", g, g-1)
		}
	}
}

func TestUncongestedReceiverKeepsLevel(t *testing.T) {
	s := NewLayeredSender(5, newSource(3))
	ls, headers := emitSlot(t, s, 1, auths(5, 0), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:3], nil) // subscribed to 3 groups, receives all
	out := r.Finish(3, false)
	if out.Congested {
		t.Fatal("lossless receiver reported congested")
	}
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
	// The top-group key must be the real top key, not a decrease key.
	if keyOf(out, 3) != ls.Keys.Top[2] {
		t.Fatalf("top key %v != α_3 %v", keyOf(out, 3), ls.Keys.Top[2])
	}
}

func TestAuthorizedUpgrade(t *testing.T) {
	s := NewLayeredSender(5, newSource(4))
	ls, headers := emitSlot(t, s, 1, auths(5, 4), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:3], nil)
	out := r.Finish(3, false)
	if out.Next != 4 {
		t.Fatalf("Next = %d, want upgrade to 4", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
	if keyOf(out, 4) != ls.Keys.Inc[3] {
		t.Fatalf("upgrade key %v != ε_4 %v", keyOf(out, 4), ls.Keys.Inc[3])
	}
}

func TestUpgradeNotAuthorizedStays(t *testing.T) {
	s := NewLayeredSender(5, newSource(5))
	ls, headers := emitSlot(t, s, 1, auths(5, 0), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:3], nil)
	out := r.Finish(3, false)
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3 without authorization", out.Next)
	}
	if _, ok := out.Key(4); ok {
		t.Fatal("receiver obtained a key for group 4 without authorization")
	}
	verifyKeys(t, &ls.Keys, out)
}

func TestUpgradeOnlyToNextGroup(t *testing.T) {
	// Authorization to group 5 does not let a receiver of 2 groups jump to
	// 5: it can only add group 3 (if authorized) — with auth set for
	// groups up to 5, the receiver of 2 groups may add group 3 only.
	s := NewLayeredSender(5, newSource(6))
	ls, headers := emitSlot(t, s, 1, auths(5, 5), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:2], nil)
	out := r.Finish(2, false)
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3", out.Next)
	}
	if _, ok := out.Key(4); ok {
		t.Fatal("receiver skipped a level")
	}
	verifyKeys(t, &ls.Keys, out)
}

func TestCongestedReceiverDropsTopGroup(t *testing.T) {
	s := NewLayeredSender(5, newSource(7))
	ls, headers := emitSlot(t, s, 1, auths(5, 0), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:4], map[[2]int]bool{{2, 3}: true}) // lose one packet of group 2
	out := r.Finish(4, false)
	if !out.Congested {
		t.Fatal("loss not detected")
	}
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
	// The congested receiver must NOT hold a key that opens group 4.
	if k, ok := out.Key(4); ok && ls.Keys.Opens(4, k) {
		t.Fatal("congested receiver obtained a key for its lossy level")
	}
}

func TestCongestedCannotReconstructTopKey(t *testing.T) {
	// An attacker that lost a packet tries the naive move: XOR everything
	// it received. That value must not open the top group.
	s := NewLayeredSender(4, newSource(8))
	ls, headers := emitSlot(t, s, 1, auths(4, 0), countsOf(4, 5))
	r := NewLayeredReceiver(4)
	r.Begin(1)
	deliver(r, headers[:4], map[[2]int]bool{{4, 2}: true})
	var naive keys.Key
	for g := 1; g <= 4; g++ {
		naive = keys.XOR(naive, r.groups[g-1].comp.Sum())
	}
	if ls.Keys.Opens(4, naive) {
		t.Fatal("naive XOR of a lossy trace opened the top group")
	}
}

func TestResolutionKeepsTopWhenOnlyTopLossyAndAuthorized(t *testing.T) {
	// §3.1.1 contradiction resolution: loss only in group 4, upgrade to 4
	// authorized, groups 1..3 clean → the receiver keeps group 4 via ε_4.
	s := NewLayeredSender(5, newSource(9))
	ls, headers := emitSlot(t, s, 1, auths(5, 4), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:4], map[[2]int]bool{{4, 1}: true})
	out := r.Finish(4, false)
	if !out.Congested {
		t.Fatal("loss not detected")
	}
	if out.Next != 4 {
		t.Fatalf("Next = %d, want 4 (resolution case)", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
	if keyOf(out, 4) != ls.Keys.Inc[3] {
		t.Fatalf("resolution key %v != ε_4 %v", keyOf(out, 4), ls.Keys.Inc[3])
	}
}

func TestResolutionRequiresAuthorization(t *testing.T) {
	s := NewLayeredSender(5, newSource(10))
	ls, headers := emitSlot(t, s, 1, auths(5, 3), countsOf(5, 4)) // auth up to 3 only
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:4], map[[2]int]bool{{4, 1}: true})
	out := r.Finish(4, false)
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3 (no auth to 4)", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
}

func TestResolutionRequiresCleanLowerGroups(t *testing.T) {
	s := NewLayeredSender(5, newSource(11))
	ls, headers := emitSlot(t, s, 1, auths(5, 4), countsOf(5, 4))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	deliver(r, headers[:4], map[[2]int]bool{{4, 1}: true, {2, 2}: true})
	out := r.Finish(4, false)
	if out.Next != 3 {
		t.Fatalf("Next = %d, want 3 (lower group also lossy)", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
}

func TestTotalLossOfGroupForcesMultiLevelDrop(t *testing.T) {
	// Group 3 loses all its packets. The key for group 2 rides in group 3's
	// decrease fields (Eq. 4), so it is unobtainable; subscription levels
	// are contiguous stacks, hence the receiver of 4 groups falls all the
	// way to level 1 — "forced to reduce its subscription by more than one
	// group" (§3.1.1).
	s := NewLayeredSender(5, newSource(12))
	ls, headers := emitSlot(t, s, 1, auths(5, 0), countsOf(5, 3))
	r := NewLayeredReceiver(5)
	r.Begin(1)
	drop := map[[2]int]bool{{3, 1}: true, {3, 2}: true, {3, 3}: true}
	deliver(r, headers[:4], drop)
	out := r.Finish(4, false)
	if out.Next != 1 {
		t.Fatalf("Next = %d, want 1", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
}

func TestCongestedAtMinimalLeavesSession(t *testing.T) {
	s := NewLayeredSender(3, newSource(13))
	_, headers := emitSlot(t, s, 1, auths(3, 0), countsOf(3, 3))
	r := NewLayeredReceiver(3)
	r.Begin(1)
	deliver(r, headers[:1], map[[2]int]bool{{1, 2}: true})
	out := r.Finish(1, false)
	if out.Next != 0 {
		t.Fatalf("Next = %d, want 0 (null)", out.Next)
	}
	if len(out.Keys) != 0 {
		t.Fatalf("receiver with nothing should hold no keys, has %v", out.Keys)
	}
}

func TestSingleGroupSession(t *testing.T) {
	s := NewLayeredSender(1, newSource(14))
	ls, headers := emitSlot(t, s, 1, auths(1, 0), countsOf(1, 5))
	r := NewLayeredReceiver(1)
	r.Begin(1)
	deliver(r, headers, nil)
	out := r.Finish(1, false)
	if out.Next != 1 || keyOf(out, 1) != ls.Keys.Top[0] {
		t.Fatalf("single-group session outcome wrong: %+v", out)
	}
}

func TestObserveIgnoresWrongSlot(t *testing.T) {
	s := NewLayeredSender(2, newSource(15))
	_, headers := emitSlot(t, s, 5, auths(2, 0), countsOf(2, 2))
	r := NewLayeredReceiver(2)
	r.Begin(6) // different slot
	deliver(r, headers, nil)
	if r.Received(1) != 0 {
		t.Fatal("receiver accumulated packets from a different slot")
	}
}

func TestObserveIgnoresOutOfRangeGroup(t *testing.T) {
	r := NewLayeredReceiver(2)
	r.Begin(1)
	r.Observe(&packet.FLIDHeader{Group: 9, Slot: 1, Count: 1}, false)
	r.Observe(&packet.FLIDHeader{Group: 0, Slot: 1, Count: 1}, false)
	if r.Received(1) != 0 && r.Received(2) != 0 {
		t.Fatal("out-of-range groups should be ignored")
	}
}

func TestECNMarkActsAsCongestion(t *testing.T) {
	s := NewLayeredSender(3, newSource(16))
	ls, headers := emitSlot(t, s, 1, auths(3, 0), countsOf(3, 3))
	r := NewLayeredReceiver(3)
	r.Begin(1)
	// All packets arrive, one is CE-marked with a scrubbed component.
	nonce := newSource(99).Nonce()
	for g, hs := range headers {
		if g >= 3 {
			break
		}
		for i, h := range hs {
			if g == 2 && i == 0 {
				scrubbed := ScrubComponent(h, nonce).(*packet.FLIDHeader)
				r.Observe(scrubbed, true)
				continue
			}
			r.Observe(h, false)
		}
	}
	out := r.Finish(3, true)
	if !out.Congested {
		t.Fatal("ECN mark not treated as congestion")
	}
	if out.Next != 2 {
		t.Fatalf("Next = %d, want 2", out.Next)
	}
	verifyKeys(t, &ls.Keys, out)
}

func TestScrubbedComponentDeniesTopKeyEvenWithoutECNMode(t *testing.T) {
	// Even if the receiver ignores the CE mark (misbehaving loss-driven
	// stack), the scrubbed component makes the reconstructed top key wrong.
	s := NewLayeredSender(3, newSource(17))
	ls, headers := emitSlot(t, s, 1, auths(3, 0), countsOf(3, 3))
	r := NewLayeredReceiver(3)
	r.Begin(1)
	nonce := newSource(98).Nonce()
	for g, hs := range headers {
		for i, h := range hs {
			if g == 2 && i == 1 {
				r.Observe(ScrubComponent(h, nonce).(*packet.FLIDHeader), false) // mark ignored
				continue
			}
			r.Observe(h, false)
		}
	}
	out := r.Finish(3, false) // loss-driven mode: no loss seen, "uncongested"
	if out.Congested {
		t.Fatal("expected nominally uncongested outcome")
	}
	if ls.Keys.Opens(3, keyOf(out, 3)) {
		t.Fatal("scrubbed component still yielded a valid top key")
	}
}

func TestFieldsPanicsOnOveremission(t *testing.T) {
	s := NewLayeredSender(2, newSource(18))
	ls := s.BeginSlot(1, auths(2, 0), countsOf(2, 1))
	ls.Fields(1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-emission should panic")
		}
	}()
	ls.Fields(1)
}

func TestBeginSlotValidation(t *testing.T) {
	s := NewLayeredSender(2, newSource(19))
	for _, tc := range []struct {
		auth   []bool
		counts []int
	}{
		{auths(1, 0), countsOf(2, 1)},
		{auths(2, 0), countsOf(1, 1)},
		{auths(2, 0), []int{1, 0}},
	} {
		func() {
			defer func() { recover() }()
			s.BeginSlot(1, tc.auth, tc.counts)
			t.Fatalf("BeginSlot(%v,%v) should panic", tc.auth, tc.counts)
		}()
	}
}

func TestTuplesMatchOpens(t *testing.T) {
	s := NewLayeredSender(4, newSource(20))
	ls, _ := emitSlot(t, s, 1, auths(4, 3), countsOf(4, 2))
	base := packet.MulticastBase
	tuples := ls.Keys.Tuples(base)
	if len(tuples) != 4 {
		t.Fatalf("%d tuples, want 4", len(tuples))
	}
	for g := 1; g <= 4; g++ {
		tp := tuples[g-1]
		if tp.Addr != packet.Group(base, g-1) {
			t.Fatalf("tuple %d addr %v", g, tp.Addr)
		}
		if !ls.Keys.Opens(g, tp.Top) {
			t.Fatalf("top key of tuple %d does not open", g)
		}
		if tp.HasDec != (g < 4) {
			t.Fatalf("tuple %d HasDec = %v", g, tp.HasDec)
		}
		if tp.HasDec && !ls.Keys.Opens(g, tp.Dec) {
			t.Fatalf("dec key of tuple %d does not open", g)
		}
		wantInc := g >= 2 && g <= 3
		if tp.HasInc != wantInc {
			t.Fatalf("tuple %d HasInc = %v, want %v", g, tp.HasInc, wantInc)
		}
		if tp.HasInc && !ls.Keys.Opens(g, tp.Inc) {
			t.Fatalf("inc key of tuple %d does not open", g)
		}
	}
}

func TestOpensRejectsForeignKeys(t *testing.T) {
	s := NewLayeredSender(3, newSource(21))
	ls, _ := emitSlot(t, s, 1, auths(3, 0), countsOf(3, 2))
	src := newSource(22)
	misses := 0
	for i := 0; i < 1000; i++ {
		if !ls.Keys.Opens(2, src.Nonce()) {
			misses++
		}
	}
	// 16-bit keys: random guesses succeed with probability ~2/65536 per
	// try (top + dec). Allow a couple of lucky hits.
	if misses < 995 {
		t.Fatalf("random keys opened the group %d/1000 times", 1000-misses)
	}
	if ls.Keys.Opens(0, 0) || ls.Keys.Opens(9, 0) {
		t.Fatal("out-of-range groups must never open")
	}
}

// The central security property, randomized: whatever the loss pattern, the
// receiver's outcome never exceeds its entitlement under the subscription
// rules, and every key it outputs is genuinely valid.
func TestEntitlementProperty(t *testing.T) {
	f := func(seed uint64, topRaw, authRaw uint8, dropMask uint16) bool {
		const n = 5
		const perGroup = 3
		top := int(topRaw%n) + 1                    // 1..5
		authTo := int(authRaw % (n + 1))            // 0..5
		s := NewLayeredSender(n, newSource(seed|1)) // nonzero seed
		rng := sim.NewRNG(seed ^ 0xabcdef)

		ls := s.BeginSlot(1, auths(n, authTo), countsOf(n, perGroup))
		r := NewLayeredReceiver(n)
		r.Begin(1)
		lossIn := make([]bool, n+1)
		allLost := make([]bool, n+1)
		pkt := 0
		for g := 1; g <= n; g++ {
			lost := 0
			for p := 1; p <= perGroup; p++ {
				comp, dec := ls.Fields(g)
				h := &packet.FLIDHeader{
					Group: uint8(g), Slot: 1, Seq: uint16(p),
					Count: perGroup, IncreaseTo: uint8(authTo),
					HasDelta: true, Component: comp, Decrease: dec,
				}
				dropThis := g <= top && (dropMask>>(pkt%16))&1 == 1 && rng.Float64() < 0.5
				pkt++
				if dropThis {
					lost++
					continue
				}
				r.Observe(h, false)
			}
			if g <= top && lost > 0 {
				lossIn[g] = true
			}
			if g <= top && lost == perGroup {
				allLost[g] = true
			}
		}
		out := r.Finish(top, false)

		// 1. Every emitted key must be valid.
		for i, k := range out.Keys {
			if !ls.Keys.Opens(out.First+i, k) {
				return false
			}
		}
		// 2. Entitlement ceiling.
		anyLoss := false
		onlyTopLossy := true
		for g := 1; g <= top; g++ {
			if lossIn[g] {
				anyLoss = true
				if g != top {
					onlyTopLossy = false
				}
			}
		}
		switch {
		case !anyLoss:
			limit := top
			if authTo >= top+1 && top < n {
				limit = top + 1
			}
			if out.Next > limit {
				return false
			}
		case onlyTopLossy && authTo >= top:
			if out.Next > top {
				return false
			}
		default:
			if out.Next > top-1 {
				return false
			}
		}
		// 3. A group that lost everything breaks the chain below it.
		for g := 2; g <= top; g++ {
			if allLost[g] && out.Next >= g-1 && g-1 >= 1 {
				// key for g-1 requires a packet from g
				if _, ok := out.Key(g - 1); ok && allLost[g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLayeredSenderSlot(b *testing.B) {
	s := NewLayeredSender(10, newSource(1))
	auth := auths(10, 5)
	counts := countsOf(10, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := s.BeginSlot(uint32(i), auth, counts)
		for g := 1; g <= 10; g++ {
			for p := 0; p < 20; p++ {
				ls.Fields(g)
			}
		}
	}
}

func BenchmarkLayeredReceiverSlot(b *testing.B) {
	s := NewLayeredSender(10, newSource(1))
	auth := auths(10, 5)
	counts := countsOf(10, 20)
	ls := s.BeginSlot(1, auth, counts)
	var hs []*packet.FLIDHeader
	for g := 1; g <= 10; g++ {
		for p := 1; p <= 20; p++ {
			comp, dec := ls.Fields(g)
			hs = append(hs, &packet.FLIDHeader{
				Group: uint8(g), Slot: 1, Seq: uint16(p), Count: 20,
				HasDelta: true, Component: comp, Decrease: dec,
			})
		}
	}
	r := NewLayeredReceiver(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Begin(1)
		for _, h := range hs {
			r.Observe(h, false)
		}
		_ = r.Finish(10, false)
	}
}
