package deltasigma_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"deltasigma"
	"deltasigma/internal/fuzzing"
	"deltasigma/internal/scenario"
)

// TestParkedEngineIsInvisible checks that what a closed experiment parks in
// its pool changes no reading of the next one: fuzz specs, hunt specs and
// the shoot-out's points, run on a pool warmed by other specs, give the
// outcomes, fingerprints, evals and campaign JSON they give on fresh pools.
func TestParkedEngineIsInvisible(t *testing.T) {
	warm := &deltasigma.PacketPool{}
	for seed := uint64(900); seed < 903; seed++ {
		fuzzing.Run(fuzzing.Generate(seed), warm)
		fuzzing.EvaluateAdvantage(fuzzing.GenerateHunt(seed), warm)
	}
	if warm.Parked().Events() == 0 {
		t.Fatal("the warm-up parked no scheduler memory: test is vacuous")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		spec := fuzzing.Generate(seed)
		if fresh, onWarm := fuzzing.Run(spec, nil), fuzzing.Run(spec, warm); !reflect.DeepEqual(fresh, onWarm) {
			t.Errorf("fuzz seed %d: fresh pool %+v, warm pool %+v", seed, fresh, onWarm)
		}
		hunt := fuzzing.GenerateHunt(seed)
		if fresh, onWarm := fuzzing.EvaluateAdvantage(hunt, nil), fuzzing.EvaluateAdvantage(hunt, warm); !reflect.DeepEqual(fresh, onWarm) {
			t.Errorf("hunt seed %d: fresh pool %+v, warm pool %+v", seed, fresh, onWarm)
		}
	}

	shootout, ok := scenario.LookupCampaign("shootout")
	if !ok {
		t.Fatal("shootout campaign not registered")
	}
	sw := shootout.Build(scenario.Options{Scale: 0.1, Seed: 2003})
	fresh, err := sw.RunEachPoint()
	if err != nil {
		t.Fatal(err)
	}
	onWarm, err := sw.RunEachPointOn(warm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := onWarm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the shoot-out's %d points read differently on a warm pool:\nfresh %s\nwarm  %s", len(fresh.Points), want, got)
	}
}

// TestClosedExperimentRefusesUse checks that every call that wires or runs
// an experiment panics after Close, with a message naming the call and
// Close, and that Close itself may be repeated.
func TestClosedExperimentRefusesUse(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithPacketPool(&deltasigma.PacketPool{}))
	s := exp.AddSession(1)
	exp.Advance(deltasigma.Second)
	exp.Close()
	exp.Close()
	if got := s.Receivers[0].Meter().Bins(); got == 0 {
		t.Error("the closed experiment's meter lost its readings")
	}
	later := exp.Now() + deltasigma.Second
	for _, c := range []struct {
		op   string
		call func()
	}{
		{"Advance", func() { exp.Advance(later) }},
		{"Run", func() { exp.Run(later) }},
		{"Start", exp.Start},
		{"AddSession", func() { exp.AddSession(1) }},
		{"AddTCP", func() { exp.AddTCP(later) }},
		{"AddCBR", func() { exp.AddCBR(100_000, deltasigma.Second, deltasigma.Second) }},
		{"AddReceiver", func() { s.AddReceiver() }},
		{"AddReceiver", func() { s.AddReceiverDelay(deltasigma.DefaultDelay) }},
		{"AddAttacker", func() { s.AddAttacker() }},
		{"AddAttacker", func() { s.TryAddAttacker() }},
		{"AddCohort", func() { s.AddCohort(10) }},
		{"AddCohort", func() { s.AddCohortDelay(10, deltasigma.DefaultDelay) }},
		{"StopTraffic", exp.StopTraffic},
		{"DrainAndAudit", func() { exp.DrainAndAudit(deltasigma.Second) }},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.call()
			return ""
		}()
		if !strings.Contains(msg, c.op) || !strings.Contains(msg, "Close") {
			t.Errorf("%s after Close: panic %q, want one naming %s and Close", c.op, msg, c.op)
		}
	}
}

// TestClosedExperimentIsCollectable checks that the memory a closed
// experiment parks in its pool holds no pointer back into the experiment:
// with the pool still live, the experiment is garbage. The probe hangs off
// the experiment's scheduler, which the whole experiment reaches, and a
// pending event's closure reaches the experiment, so a parked event that
// kept its function would keep the probe alive.
func TestClosedExperimentIsCollectable(t *testing.T) {
	type anchorKey struct{}
	pool := &deltasigma.PacketPool{}
	collected := make(chan struct{})
	func() {
		exp := deltasigma.MustNew(deltasigma.WithPacketPool(pool))
		exp.AddSession(2)
		exp.Advance(2 * deltasigma.Second)
		exp.Topo.Scheduler().At(exp.Now()+3600*deltasigma.Second, func() { exp.Advance(0) })
		probe := new([64]byte)
		runtime.SetFinalizer(probe, func(*[64]byte) { close(collected) })
		exp.Topo.Scheduler().Anchor(anchorKey{}, func() any { return probe })
		exp.Close()
	}()
	if pool.Parked().Events() == 0 {
		t.Fatal("Close parked no scheduler memory: test is vacuous")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(pool)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a closed experiment stayed reachable while its pool was live")
	runtime.KeepAlive(pool)
}
