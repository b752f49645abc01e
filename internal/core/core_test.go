package core

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

func TestPaperScheduleRates(t *testing.T) {
	rs := PaperSchedule()
	if got := rs.Cumulative(1); got != 100_000 {
		t.Fatalf("C_1 = %d, want 100000", got)
	}
	if got := rs.Cumulative(2); got != 150_000 {
		t.Fatalf("C_2 = %d, want 150000", got)
	}
	// C_10 = 100k · 1.5^9 ≈ 3.844 Mbps.
	if got := rs.Cumulative(10); got < 3_840_000 || got > 3_850_000 {
		t.Fatalf("C_10 = %d, want ~3.84 Mbps", got)
	}
	// Group rates are increments and sum to the cumulative rate.
	var sum int64
	for g := 1; g <= 10; g++ {
		sum += rs.GroupRate(g)
	}
	if sum != rs.Cumulative(10) {
		t.Fatalf("group rates sum to %d, cumulative is %d", sum, rs.Cumulative(10))
	}
}

func TestCumulativeBounds(t *testing.T) {
	rs := PaperSchedule()
	if rs.Cumulative(0) != 0 || rs.Cumulative(-3) != 0 {
		t.Fatal("level <= 0 must have zero rate")
	}
	if rs.Cumulative(99) != rs.Cumulative(10) {
		t.Fatal("levels above N must clamp")
	}
}

func TestFairLevel(t *testing.T) {
	rs := PaperSchedule()
	cases := map[int64]int{
		50_000:    0, // below minimal
		100_000:   1,
		150_000:   2,
		250_000:   3, // C_3 = 225k fits, C_4 = 337.5k does not
		1_000_000: 6, // C_6 = 759k fits, C_7 = 1139k does not
	}
	for share, want := range cases {
		if got := rs.FairLevel(share); got != want {
			t.Fatalf("FairLevel(%d) = %d, want %d", share, got, want)
		}
	}
}

func TestScheduleForTotal(t *testing.T) {
	// §5.4 settings: R = 4 Mbps, r = 100 Kbps, N = 10 → m = 40^(1/9).
	rs := ScheduleForTotal(100_000, 4_000_000, 10)
	wantM := math.Pow(40, 1.0/9)
	if math.Abs(rs.Mult-wantM) > 1e-9 {
		t.Fatalf("m = %v, want %v", rs.Mult, wantM)
	}
	got := rs.Cumulative(10)
	if got < 3_999_000 || got > 4_001_000 {
		t.Fatalf("C_N = %d, want ~4 Mbps", got)
	}
}

func TestScheduleForTotalSingleGroup(t *testing.T) {
	rs := ScheduleForTotal(100_000, 100_000, 1)
	if rs.Cumulative(1) != 100_000 {
		t.Fatal("single-group schedule wrong")
	}
}

func TestSessionAddressing(t *testing.T) {
	s := &Session{ID: 1, BaseAddr: packet.MulticastBase, Rates: PaperSchedule()}
	if s.GroupAddr(1) != packet.MulticastBase {
		t.Fatal("group 1 address wrong")
	}
	if s.GroupIndex(s.GroupAddr(7)) != 7 {
		t.Fatal("GroupIndex round trip failed")
	}
	if s.GroupIndex(packet.MulticastBase+100) != 0 {
		t.Fatal("foreign address should map to 0")
	}
	if got := s.Addrs(); len(got) != 10 || got[9] != s.GroupAddr(10) {
		t.Fatalf("Addrs wrong: %v", got)
	}
}

// Key receivers leave the session through Addrs on every churn toggle, so
// it hands out one slice per session instead of building one per call.
func TestAddrsBuiltOncePerSession(t *testing.T) {
	s := &Session{ID: 1, BaseAddr: packet.MulticastBase, Rates: PaperSchedule()}
	first := s.Addrs()
	if got := testing.AllocsPerRun(100, func() { s.Addrs() }); got != 0 {
		t.Fatalf("Addrs allocated %.0f times per call once built", got)
	}
	if got := s.Addrs(); &got[0] != &first[0] {
		t.Fatal("Addrs built a second slice for the same session")
	}
}

// KeyPairs binds a run of keys to the run of group addresses starting at
// first — a layered prefix, or a replicated group and its neighbour — and
// appends into the caller's buffer without allocating once it has grown.
func TestKeyPairsAppendsRunInGroupOrder(t *testing.T) {
	s := &Session{ID: 1, BaseAddr: packet.MulticastBase, Rates: PaperSchedule()}
	for _, tc := range []struct {
		name  string
		first int
		keys  []keys.Key
	}{
		{"layered prefix", 1, []keys.Key{11, 12, 13, 14}},
		{"replicated group", 3, []keys.Key{33}},
		{"replicated upgrade", 3, []keys.Key{33, 33}},
		{"nothing reconstructed", 1, nil},
	} {
		buf := make([]packet.AddrKey, 1, 8)
		buf[0] = packet.AddrKey{Addr: 7, Key: 7} // what the caller already had
		got := s.KeyPairs(buf, tc.first, tc.keys)
		if len(got) != 1+len(tc.keys) || got[0] != buf[0] || &got[0] != &buf[0] {
			t.Fatalf("%s: KeyPairs returned %v, want the buffer extended in place by %d pairs", tc.name, got, len(tc.keys))
		}
		for i, k := range tc.keys {
			if want := (packet.AddrKey{Addr: s.GroupAddr(tc.first + i), Key: k}); got[1+i] != want {
				t.Fatalf("%s: pair %d = %v, want %v", tc.name, i, got[1+i], want)
			}
		}
	}
}

func TestSessionSlotClock(t *testing.T) {
	s := &Session{SlotDur: 250 * sim.Millisecond}
	if s.SlotAt(0) != 0 || s.SlotAt(240*sim.Millisecond) != 0 {
		t.Fatal("first slot misnumbered")
	}
	if s.SlotAt(250*sim.Millisecond) != 1 {
		t.Fatal("slot boundary misnumbered")
	}
	if s.SlotAt(sim.Second) != 4 || s.SlotAt(1240*sim.Millisecond) != 4 {
		t.Fatal("later slot misnumbered")
	}
	if s.SlotStart(4) != sim.Second {
		t.Fatalf("SlotStart(4) = %v", s.SlotStart(4))
	}
}

func TestAccessSlotOffset(t *testing.T) {
	if AccessSlot(5) != 7 {
		t.Fatal("Figure 2 pipeline offset must be 2")
	}
}

func TestPeriodicUpgrades(t *testing.T) {
	p := PeriodicUpgrades{Factor: 2, N: 5}
	// period(2)=2, period(3)=4, period(4)=6, period(5)=8.
	wantPeriods := map[int]uint32{2: 2, 3: 4, 4: 6, 5: 8}
	for g, want := range wantPeriods {
		if got := p.Period(g); got != want {
			t.Fatalf("Period(%d) = %d, want %d", g, got, want)
		}
	}
	if p.Period(1) != 0 {
		t.Fatal("no upgrade period for the minimal group")
	}
	// Slot 0 authorizes everything.
	if p.IncreaseTo(0) != 5 {
		t.Fatalf("IncreaseTo(0) = %d, want 5", p.IncreaseTo(0))
	}
	// Slot 2 authorizes group 2 only; slot 8 authorizes up to 5.
	if p.IncreaseTo(2) != 2 {
		t.Fatalf("IncreaseTo(2) = %d, want 2", p.IncreaseTo(2))
	}
	if p.IncreaseTo(8) != 5 {
		t.Fatalf("IncreaseTo(8) = %d, want 5", p.IncreaseTo(8))
	}
	if p.IncreaseTo(1) != 0 {
		t.Fatalf("IncreaseTo(1) = %d, want 0", p.IncreaseTo(1))
	}
}

func TestPeriodicUpgradeFrequencyMatchesSchedule(t *testing.T) {
	p := PeriodicUpgrades{Factor: 2, N: 6}
	const slots = 10000
	counts := make([]int, p.N+1)
	for s := uint32(0); s < slots; s++ {
		for g := 2; g <= p.N; g++ {
			if s%p.Period(g) == 0 {
				counts[g]++
			}
		}
	}
	for g := 2; g <= p.N; g++ {
		got := float64(counts[g]) / slots
		want := p.Frequency(g)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("f_%d = %v, want %v", g, got, want)
		}
	}
	// Frequencies must decrease with the level.
	for g := 3; g <= p.N; g++ {
		if p.Frequency(g) > p.Frequency(g-1) {
			t.Fatalf("f_%d > f_%d: upgrades must thin out at higher levels", g, g-1)
		}
	}
}

func TestPacerLongRunRateExact(t *testing.T) {
	var p Pacer
	const rate = 100_000 // bits/s
	const pktBytes = 576
	slot := 250 * sim.Millisecond
	total := 0
	const slots = 4000 // 1000 seconds
	for i := 0; i < slots; i++ {
		total += p.Packets(rate, slot, pktBytes)
	}
	wantPkts := float64(rate) * 1000 / 8 / pktBytes
	if math.Abs(float64(total)-wantPkts) > 1 {
		t.Fatalf("paced %d packets, want ~%.1f", total, wantPkts)
	}
}

func TestPacerMinOne(t *testing.T) {
	var p Pacer
	// 1 Kbps in 250 ms slots is far below one packet per slot, but the
	// floor still sends one; the borrowed credit keeps long-run rate sane.
	for i := 0; i < 10; i++ {
		if got := p.Packets(1000, 250*sim.Millisecond, 576); got != 1 {
			t.Fatalf("slot %d: %d packets, want 1", i, got)
		}
	}
}

// Property: every slot sends at least one packet, the credit never holds
// a whole unsent packet, and the packets sent plus the credit account for
// the whole budget.
func TestPacerProperty(t *testing.T) {
	f := func(rates []uint32) bool {
		var p Pacer
		sent, budget := 0, 0.0
		for _, r := range rates {
			rate := int64(r % 10_000_000)
			if rate == 0 {
				rate = 1
			}
			n := p.Packets(rate, 250*sim.Millisecond, 576)
			if n < 1 || p.credit >= 576 {
				return false
			}
			sent += n
			budget += float64(rate) * (250 * sim.Millisecond).Sec() / 8
		}
		return math.Abs(float64(sent*576)+p.credit-budget) <= 1e-6*max(budget, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRateScheduleCheck(t *testing.T) {
	for _, c := range []struct {
		rs RateSchedule
		ok bool
	}{
		{PaperSchedule(), true},
		{RateSchedule{Base: 100, Mult: 1, N: 255}, true},
		{RateSchedule{Base: 0, Mult: 1.5, N: 10}, false},
		{RateSchedule{Base: 100, Mult: 0.5, N: 10}, false},
		{RateSchedule{Base: 100, Mult: 1.5, N: 0}, false},
		{RateSchedule{Base: 100, Mult: 1.5, N: 256}, false},
	} {
		if err := c.rs.Check(); (err == nil) != c.ok {
			t.Errorf("Check(%+v) = %v, want ok %v", c.rs, err, c.ok)
		}
	}
}

// A sender's rings hold a whole slot of emissions and campaign workers pay
// for every experiment's rings, so a queued emission costs one send time:
// the stamp and reservation are stored once per group's slot.
func TestEmissionIsOneSendTime(t *testing.T) {
	var e groupEmitter
	if size, want := unsafe.Sizeof(e.ring[0]), unsafe.Sizeof(sim.Time(0)); size != want {
		t.Fatalf("a queued emission is %d bytes, want one sim.Time (%d)", size, want)
	}
}
