package dynamics

import (
	"slices"
	"strings"
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

// TestFlapInstants pins the flap schedule the facade installs on the
// timeline and the adaptive attacker reads: downs one period apart from
// one period after from, each up a tenth of a period after its down.
func TestFlapInstants(t *testing.T) {
	const s = sim.Second
	for _, c := range []struct {
		name             string
		period, from, to sim.Time
		downs, ups       []sim.Time
		err              string
	}{
		{name: "negative period", period: -1, to: 100, err: "leaves no down time"},
		{name: "zero period", period: 0, to: 100, err: "leaves no down time"},
		{name: "9ns period", period: 9, to: 100, err: "leaves no down time"},
		{name: "10ns period downs for 1ns", period: 10, to: 25, downs: []sim.Time{10, 20}, ups: []sim.Time{11, 21}},
		{name: "last up past to is kept", period: 2 * s, to: 7 * s,
			downs: []sim.Time{2 * s, 4 * s, 6 * s}, ups: []sim.Time{2200 * sim.Millisecond, 4200 * sim.Millisecond, 6200 * sim.Millisecond}},
		{name: "down exactly at to fires", period: 3 * s, from: 2 * s, to: 8 * s,
			downs: []sim.Time{5 * s, 8 * s}, ups: []sim.Time{5300 * sim.Millisecond, 8300 * sim.Millisecond}},
		{name: "negative from clamps to zero", period: 2 * s, from: -10 * s, to: 5 * s,
			downs: []sim.Time{2 * s, 4 * s}, ups: []sim.Time{2200 * sim.Millisecond, 4200 * sim.Millisecond}},
		{name: "window before zero flaps nothing", period: 2 * s, from: -10 * s, to: -5 * s},
		{name: "more cycles than the bound", period: 10, to: 10 * (maxFlaps + 1), err: "more than"},
	} {
		downs, ups, err := FlapInstants(c.period, c.from, c.to)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) || downs != nil || ups != nil {
				t.Errorf("%s: FlapInstants = %v, %v, %v; want no transitions and an error saying %q", c.name, downs, ups, err, c.err)
			}
			continue
		}
		if err != nil || !slices.Equal(downs, c.downs) || !slices.Equal(ups, c.ups) {
			t.Errorf("%s: FlapInstants = downs %v, ups %v, %v; want downs %v, ups %v", c.name, downs, ups, err, c.downs, c.ups)
		}
	}
}
