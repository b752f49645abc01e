package dynamics

import (
	"testing"

	"deltasigma/internal/sim"
)

func TestTimelineFiresInDeclarationOrder(t *testing.T) {
	sched := sim.NewScheduler()
	var tl Timeline
	var got []int
	// Two events at the same timestamp plus one earlier one declared last:
	// firing order must be timestamp-major, declaration-minor.
	tl.Add(5, func() { got = append(got, 1) })
	tl.Add(5, func() { got = append(got, 2) })
	tl.Add(3, func() { got = append(got, 3) })
	tl.Add(-1, func() { got = append(got, 4) }) // negative clamps to zero
	if tl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tl.Len())
	}
	tl.Install(sched)
	sched.Run()
	want := []int{4, 3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestTimelineDoubleInstallPanics(t *testing.T) {
	sched := sim.NewScheduler()
	var tl Timeline
	tl.Add(1, func() {})
	tl.Install(sched)
	defer func() {
		if recover() == nil {
			t.Fatal("second Install did not panic")
		}
	}()
	tl.Install(sched)
}

func TestChurnIsSeededDeterministic(t *testing.T) {
	run := func(seed uint64) ([]sim.Time, []int) {
		sched := sim.NewScheduler()
		var times []sim.Time
		var targets []int
		c := NewChurn(sched, sim.NewRNG(seed), 5, 10*sim.Second, 4, func(i int) {
			times = append(times, sched.Now())
			targets = append(targets, i)
		})
		c.Start(0)
		sched.Run()
		if c.Events != uint64(len(times)) {
			t.Fatalf("Events = %d, fired %d", c.Events, len(times))
		}
		return times, targets
	}
	t1, g1 := run(42)
	t2, g2 := run(42)
	if len(t1) == 0 {
		t.Fatal("churn fired no events over 10 s at rate 5/s")
	}
	for i := range t1 {
		if t1[i] != t2[i] || g1[i] != g2[i] {
			t.Fatalf("same seed diverged at event %d: (%v,%d) vs (%v,%d)", i, t1[i], g1[i], t2[i], g2[i])
		}
	}
	t3, _ := run(43)
	same := len(t3) == len(t1)
	if same {
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical event trains")
	}
	// Every event respects the horizon.
	for _, at := range t1 {
		if at > 10*sim.Second {
			t.Fatalf("event at %v past the 10s horizon", at)
		}
	}
}

func TestFlapperAlwaysComesBackUp(t *testing.T) {
	sched := sim.NewScheduler()
	downs, ups := 0, 0
	f, err := NewFlapper(sched, 2*sim.Second, 7*sim.Second,
		func() { downs++ }, func() { ups++ })
	if err != nil {
		t.Fatal(err)
	}
	f.Start(0)
	sched.Run()
	if downs == 0 {
		t.Fatal("flapper never went down")
	}
	if downs != ups {
		t.Fatalf("downs %d != ups %d: target stranded down", downs, ups)
	}
	if f.Flaps != uint64(downs) {
		t.Fatalf("Flaps = %d, want %d", f.Flaps, downs)
	}
	// Down at 2s, up at 2.2s, down at 4s, up at 4.2s, down at 6s, up at
	// 6.2s; the 8s down is past the horizon.
	if downs != 3 {
		t.Fatalf("downs = %d, want 3", downs)
	}
}

// A flap period must leave a positive down time, a tenth of the period.
func TestFlapperValidation(t *testing.T) {
	sched := sim.NewScheduler()
	for _, period := range []sim.Time{-1, 0, 9} {
		if f, err := NewFlapper(sched, period, 10, func() {}, func() {}); err == nil || f != nil {
			t.Errorf("NewFlapper(period=%v) = %v, %v; want an error", period, f, err)
		}
	}
	if _, err := NewFlapper(sched, 10, 10, func() {}, func() {}); err != nil {
		t.Errorf("NewFlapper(period=10) = %v; a 1-tick down time is valid", err)
	}
}

// TestFlapInstantsMatchFlapper pins the static schedule computation to
// the live generator: FlapInstants must predict exactly the down and up
// transitions a running Flapper fires, since the adaptive attacker times
// its bursts off the prediction while the links obey the generator.
func TestFlapInstantsMatchFlapper(t *testing.T) {
	const (
		period = 3 * sim.Second
		from   = 2 * sim.Second
		until  = 20 * sim.Second
	)
	sched := sim.NewScheduler()
	var downs, ups []sim.Time
	f, err := NewFlapper(sched, period, until,
		func() { downs = append(downs, sched.Now()) },
		func() { ups = append(ups, sched.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	f.Start(from)
	sched.Run()

	wantDowns, wantUps := FlapInstants(period, from, until)
	if len(wantDowns) == 0 {
		t.Fatal("test window produced no flaps")
	}
	if len(downs) != len(wantDowns) || len(ups) != len(wantUps) {
		t.Fatalf("fired %d downs / %d ups, predicted %d / %d", len(downs), len(ups), len(wantDowns), len(wantUps))
	}
	for i := range wantDowns {
		if downs[i] != wantDowns[i] || ups[i] != wantUps[i] {
			t.Fatalf("cycle %d: fired down %v up %v, predicted %v %v", i, downs[i], ups[i], wantDowns[i], wantUps[i])
		}
	}
	if f.Flaps != uint64(len(wantDowns)) {
		t.Fatalf("Flaps = %d, want %d", f.Flaps, len(wantDowns))
	}

	// Degenerate parameters predict nothing rather than panicking.
	if d, u := FlapInstants(0, from, until); d != nil || u != nil {
		t.Fatal("zero period should predict no transitions")
	}
	if d, u := FlapInstants(9, from, until); d != nil || u != nil {
		t.Fatal("a period with no down time should predict no transitions")
	}
}
