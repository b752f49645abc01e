package sim

import "testing"

// Regression for the Timer-staleness bug: a handle to a fired event whose
// event object has been recycled into a *different* timer must read as
// inactive — Stop must not cancel the new owner's event, and When must not
// leak its timestamp.
func TestTimerPoolReuseCollision(t *testing.T) {
	s := NewScheduler()
	stale := s.At(Second, func() {})
	s.Run()
	if s.FreeEvents() == 0 {
		t.Fatal("fired event was not recycled")
	}

	// The recycled event is reissued to an unrelated timer.
	fired := false
	fresh := s.At(5*Second, func() { fired = true })

	if stale.Active() {
		t.Fatal("stale handle reads recycled event as active")
	}
	if got := stale.When(); got != 0 {
		t.Fatalf("stale When = %v, want 0 (must not read the new owner's time)", got)
	}
	if stale.Stop() {
		t.Fatal("stale Stop reported a cancellation")
	}
	if !fresh.Active() {
		t.Fatal("stale Stop cancelled the recycled event's new owner")
	}
	s.Run()
	if !fired {
		t.Fatal("new owner's event never fired after stale Stop")
	}
}

func TestEventFreelistRecyclesFiredAndStopped(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		s.Schedule(Time(i)*Millisecond, func() {})
	}
	tm := s.At(Second, func() {})
	tm.Stop()
	if got := s.FreeEvents(); got != 1 {
		t.Fatalf("FreeEvents = %d after Stop, want 1", got)
	}
	s.Run()
	if got := s.FreeEvents(); got == 0 {
		t.Fatal("fired events were not recycled")
	}
	// A fresh burst must drain the freelist instead of allocating.
	before := s.FreeEvents()
	for i := 0; i < before; i++ {
		s.Schedule(s.Now()+Millisecond, func() {})
	}
	if got := s.FreeEvents(); got != 0 {
		t.Fatalf("FreeEvents = %d after reusing burst, want 0", got)
	}
	s.Run()
}

func TestTimerResetReschedulesInPlace(t *testing.T) {
	s := NewScheduler()
	var at []Time
	tick := s.NewTimer(func() {})
	tm := s.At(Second, func() { at = append(at, s.Now()) })
	_ = tick
	tm.Reset(3 * Second) // still pending: reschedule in place
	if got := tm.When(); got != 3*Second {
		t.Fatalf("When after Reset = %v, want 3s", got)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d after in-place Reset, want 1", got)
	}
	s.Run()
	if len(at) != 1 || at[0] != 3*Second {
		t.Fatalf("fired at %v, want [3s]", at)
	}

	// Re-arming after fire reuses the recycled event: no net allocation.
	free := s.FreeEvents()
	tm.Reset(Second)
	if got := s.FreeEvents(); got != free-1 {
		t.Fatalf("FreeEvents = %d after re-arm, want %d (event from freelist)", got, free-1)
	}
	s.Run()
	if len(at) != 2 {
		t.Fatalf("re-armed timer fired %d times, want 2", len(at))
	}
}

func TestPeriodicTimerReusesOneEvent(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tick *Timer
	tick = s.NewTimer(func() {
		n++
		if n < 50 {
			tick.Reset(Millisecond)
		}
	})
	tick.Reset(Millisecond)
	s.Run()
	if n != 50 {
		t.Fatalf("ticks = %d, want 50", n)
	}
	// The whole loop cycles a single event object through fire → recycle →
	// re-arm, so at most one recycled event remains.
	if got := s.FreeEvents(); got != 1 {
		t.Fatalf("FreeEvents = %d after periodic loop, want 1", got)
	}
}

func TestResetReservedPreservesTieOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	// Reserve early, schedule competing same-time events afterwards, then
	// arm the reserved timer last: it must still fire first, exactly as if
	// it had been scheduled at reservation time.
	res := s.Reserve()
	s.Schedule(Second, func() { got = append(got, 2) })
	s.Schedule(Second, func() { got = append(got, 3) })
	tm := s.NewTimer(func() { got = append(got, 1) })
	tm.ResetReserved(Second, res)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

// Run and RunUntil must share pop/recycle/clock semantics: identical
// workloads leave identical fired counts, clocks, and freelists.
func TestRunMatchesRunUntil(t *testing.T) {
	build := func() *Scheduler {
		s := NewScheduler()
		for i := 1; i <= 10; i++ {
			i := i
			s.Schedule(Time(i)*Second, func() {
				if i == 5 {
					s.Schedule(s.Now()+500*Millisecond, func() {})
				}
			})
		}
		return s
	}
	a, b := build(), build()
	a.Run()
	b.RunUntil(1000 * Second)
	if a.Fired() != b.Fired() {
		t.Fatalf("Fired: Run=%d RunUntil=%d", a.Fired(), b.Fired())
	}
	if a.Now() != b.Now() {
		// Run leaves the clock at the last event; RunUntil advances to the
		// horizon — that asymmetry is documented, so only check event state.
		if b.Now() != 1000*Second {
			t.Fatalf("RunUntil clock = %v, want horizon", b.Now())
		}
	}
	if a.FreeEvents() != b.FreeEvents() {
		t.Fatalf("FreeEvents: Run=%d RunUntil=%d", a.FreeEvents(), b.FreeEvents())
	}
	if a.Pending() != 0 || b.Pending() != 0 {
		t.Fatalf("Pending: Run=%d RunUntil=%d, want 0", a.Pending(), b.Pending())
	}
}

func TestScheduleZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	f := func() {}
	// Prime the freelist.
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i), f)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.Schedule(s.Now(), f)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Run allocates %.1f objects in steady state, want 0", allocs)
	}
}

// A Freelist hands back what was put, newest first, and mints a zero value
// when empty; parked slots are cleared so the list pins nothing it gave out.
func TestFreelistRecycles(t *testing.T) {
	type item struct{ n int }
	var f Freelist[item]
	a := f.Get()
	if a == nil || a.n != 0 {
		t.Fatalf("empty Get = %+v, want a fresh zero item", a)
	}
	a.n = 7
	b := f.Get()
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b {
		t.Fatal("Get did not return the most recently parked item")
	}
	if got := f.Get(); got != a || got.n != 7 {
		t.Fatalf("Get = %+v, want the parked item back, contents untouched", got)
	}
	if len(f) != 0 || f[:1][0] != nil {
		t.Fatal("a handed-out item is still referenced by the list")
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Put(f.Get()) }); allocs != 0 {
		t.Fatalf("a Get/Put round trip allocated %.0f times once the list held an item", allocs)
	}
}

// TestAdoptedCalendarAllocatesNothing pins what a campaign worker gains
// from parking: a burst — a crowd of ties on one boundary, then spaced
// events — is cut off by Park halfway through the crowd, with the crowd's
// day ordered and pending, and a new scheduler that adopts the parked
// memory schedules and fires the same burst without allocating. The parked
// storage is sound and pins no closure, and a handle into the parked run
// stays inert after its event serves the next scheduler.
func TestAdoptedCalendarAllocatesNothing(t *testing.T) {
	const crowd, spaced = 1000, 200
	f := func() {}
	burst := func(s *Scheduler, stop func()) {
		for i := 0; i < crowd; i++ {
			if i == crowd/2 {
				s.Schedule(Second, stop)
			}
			s.Schedule(Second, f)
		}
		for i := 1; i <= spaced; i++ {
			s.Schedule(Second+Time(i)*Millisecond, f)
		}
		s.Run()
	}
	var p Parked
	first := NewScheduler()
	handle := first.At(2*Second, f)
	burst(first, first.Stop)
	if first.cal.runDay == calNoRun || first.Pending() < crowd/2 {
		t.Fatalf("the burst was cut with %d events pending and no ordered day, want its crowd half drained", first.Pending())
	}
	first.Park(&p)
	if handle.Active() || handle.Stop() || first.Pending() != 0 {
		t.Fatal("Park left the closed run with a live event")
	}
	if err := storageSound(&p.cal); err != nil {
		t.Fatal(err)
	}
	for _, e := range p.free {
		if e.do != nil || e.idx >= 0 {
			t.Fatal("a parked event keeps its function or reads as pending")
		}
	}

	// One scheduler per run, made outside the measurement.
	next := make([]*Scheduler, 12)
	stops := make([]func(), len(next))
	for i := range next {
		next[i] = NewScheduler()
		stops[i] = next[i].Stop
	}
	runs := 0
	avg := testing.AllocsPerRun(len(next)-1, func() {
		s := next[runs]
		s.Adopt(&p)
		if s.Pending() != 0 {
			t.Fatalf("an adopting scheduler starts with %d events pending, want 0", s.Pending())
		}
		burst(s, stops[runs])
		runs++
		if s.Fired() != crowd/2+1 {
			t.Fatalf("an adopting scheduler fired %d events, want %d", s.Fired(), crowd/2+1)
		}
		s.Park(&p)
	})
	if avg != 0 {
		t.Errorf("a burst on an adopted calendar allocated %.1f times, want 0", avg)
	}
	if handle.Active() || handle.Stop() {
		t.Error("a handle into the first run revived after its event served another scheduler")
	}

	// A scheduler with events of its own ignores parked memory.
	busy := NewScheduler()
	busy.Schedule(Second, f)
	busy.Adopt(&p)
	if p.cal.buckets == nil || busy.FreeEvents() != 0 {
		t.Error("a scheduler holding an event adopted parked memory")
	}
}
