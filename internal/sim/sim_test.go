package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*Second, func() { got = append(got, 3) })
	s.At(1*Second, func() { got = append(got, 1) })
	s.At(2*Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestSchedulerStableTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order at %d: %v", i, got[:i+1])
		}
	}
}

func TestSchedulerRunUntilStopsAtLimit(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1*Second, func() { fired++ })
	s.At(5*Second, func() { fired++ })
	s.RunUntil(2 * Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 2*Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
	s.RunUntil(10 * Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after extending horizon", fired)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var got []Time
	var tick func()
	tick = func() {
		got = append(got, s.Now())
		if len(got) < 5 {
			s.Schedule(s.Now()+Second, tick)
		}
	}
	s.Schedule(s.Now(), tick)
	s.Run()
	if len(got) != 5 {
		t.Fatalf("ticks = %d, want 5", len(got))
	}
	for i, at := range got {
		if at != Time(i)*Second {
			t.Fatalf("tick %d at %v, want %v", i, at, Time(i)*Second)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(2*Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(1*Second, func() {})
	})
	s.Run()
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.At(Second, func() {})
	s.Run()
	if tm.Active() {
		t.Fatal("timer should be inactive after firing")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	var nilTimer *Timer
	if nilTimer.Stop() {
		t.Fatal("Stop on nil handle should report false")
	}
}

// Regression: a stopped timer must leave the heap immediately, not linger
// as a dead event until its timestamp drains. Cancel-heavy workloads (TCP
// retransmission timers rescheduled on every ACK) would otherwise balloon
// Pending() and pay O(log n) on a bloated heap for the whole run.
func TestTimerStopRemovesFromHeap(t *testing.T) {
	s := NewScheduler()
	var timers []*Timer
	for i := 0; i < 1000; i++ {
		// Far-future timers: without heap removal these would sit in the
		// heap until t=1000s even though every one is cancelled below.
		timers = append(timers, s.At(s.Now()+1000*Second, func() {}))
	}
	if got := s.Pending(); got != 1000 {
		t.Fatalf("Pending = %d before Stop, want 1000", got)
	}
	for i, tm := range timers {
		tm.Stop()
		if got, want := s.Pending(), 1000-i-1; got != want {
			t.Fatalf("Pending = %d after stopping %d timers, want %d", got, i+1, want)
		}
	}
	// The scheduler must still run cleanly with an emptied heap.
	fired := false
	s.At(Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("live event did not fire after mass cancellation")
	}
}

// Regression: stopping timers out of insertion order (the heap-middle case
// heap.Remove has to sift around) must preserve execution order of the
// survivors.
func TestTimerStopInterleavedKeepsOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	var cancel []*Timer
	for i := 0; i < 100; i++ {
		i := i
		tm := s.At(Time(i)*Millisecond, func() { got = append(got, i) })
		if i%3 == 0 {
			cancel = append(cancel, tm)
		}
	}
	// Stop every third timer, middle-out.
	for i := len(cancel)/2 - 1; i >= 0; i-- {
		cancel[i].Stop()
	}
	for i := len(cancel) / 2; i < len(cancel); i++ {
		cancel[i].Stop()
	}
	s.Run()
	want := 0
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled timer %d fired", v)
		}
		if v < want {
			t.Fatalf("events fired out of order: %v", got)
		}
		want = v
	}
}

func TestTimerWhen(t *testing.T) {
	s := NewScheduler()
	tm := s.At(7*Second, func() {})
	if tm.When() != 7*Second {
		t.Fatalf("When = %v, want 7s", tm.When())
	}
}

func TestStopHaltsLoop(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.At(1*Second, func() { count++; s.Stop() })
	s.At(2*Second, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt loop)", count)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).Sec(); got != 2.5 {
		t.Fatalf("Sec = %v, want 2.5", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Fatalf("String = %q", s)
	}
}

// Property: for any batch of (delay, id) pairs, execution order sorts by
// delay with insertion order breaking ties.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := Time(d) * Millisecond
			i := i
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.Run()
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return len(got) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must generate identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 16; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// A child forked at the same parent state yields the same stream
	// regardless of later parent draws.
	p1 := NewRNG(7)
	c1 := p1.Fork()
	want := make([]uint64, 8)
	for i := range want {
		want[i] = c1.Uint64()
	}

	p2 := NewRNG(7)
	c2 := p2.Fork()
	for i := 0; i < 100; i++ {
		p2.Uint64() // extra parent draws after the fork must not matter
	}
	for i := range want {
		if got := c2.Uint64(); got != want[i] {
			t.Fatalf("fork stream diverged at %d", i)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		j := g.Jitter(10 * Millisecond)
		if j < 0 || j >= 10*Millisecond {
			t.Fatalf("jitter %v out of [0,10ms)", j)
		}
	}
	if g.Jitter(0) != 0 {
		t.Fatal("Jitter(0) must be 0")
	}
	if g.Jitter(-5) != 0 {
		t.Fatal("Jitter(neg) must be 0")
	}
}

func TestRNGIntNRange(t *testing.T) {
	g := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := g.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("IntN(7) covered %d values, want 7", len(seen))
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			s.Schedule(s.Now()+Microsecond, pump)
		}
	}
	b.ResetTimer()
	s.Schedule(s.Now(), pump)
	s.Run()
}

// BenchmarkSchedulerCancelHeavy models the TCP retransmit pattern: every
// tick arms a far-future timeout and cancels the previous one. Before
// Timer.Stop removed events from the heap, the dead timers accumulated and
// every operation paid O(log n) on a heap of mostly-cancelled events; with
// the fix the heap holds at most two events throughout.
func BenchmarkSchedulerCancelHeavy(b *testing.B) {
	s := NewScheduler()
	var rto *Timer
	var pump func()
	n, maxPending := 0, 0
	pump = func() {
		n++
		rto.Stop()
		rto = s.At(s.Now()+60*Second, func() {}) // timeout that never fires
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
		if n < b.N {
			s.Schedule(s.Now()+Microsecond, pump)
		}
	}
	b.ResetTimer()
	s.Schedule(s.Now(), pump)
	s.Run()
	if maxPending > 2 {
		b.Fatalf("cancelled timers leaked: max Pending = %d", maxPending)
	}
}

// fanOut builds a scheduler, arms 1000 timers a microsecond apart and drains
// it: what a short experiment pays for a calendar of its own.
func fanOut() {
	s := NewScheduler()
	for j := 0; j < 1000; j++ {
		s.At(Time(j)*Microsecond, func() {})
	}
	s.Run()
}

func BenchmarkSchedulerFanOut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fanOut()
	}
}
