package fuzzing

import (
	"reflect"
	"testing"

	"deltasigma/internal/sim"
)

// huntSpecValid checks the structural guarantees repairHunt promises.
func huntSpecValid(t *testing.T, sp Spec) {
	t.Helper()
	if sp.Oracle == nil {
		t.Fatal("hunt spec without an oracle window")
	}
	if sp.Oracle.Session != 1 {
		t.Fatalf("oracle on session %d, want 1", sp.Oracle.Session)
	}
	if sp.DurationSec < huntMinDurSec || sp.DurationSec > huntMaxDurSec {
		t.Fatalf("duration %g outside [%g, %g]", sp.DurationSec, huntMinDurSec, huntMaxDurSec)
	}
	if sp.Oracle.FromSec >= sp.DurationSec-oracleMinWindow+1e-9 {
		t.Fatalf("oracle opens at %gs leaving no window before %gs", sp.Oracle.FromSec, sp.DurationSec)
	}
	honest, attackers := populations(sp.Sessions[0])
	if honest == 0 || attackers == 0 {
		t.Fatalf("session 1 has %d honest, %d attackers; want both populations", honest, attackers)
	}
	if _, err := sp.Options(); err != nil {
		t.Fatalf("spec does not build: %v", err)
	}
}

func TestGenerateHuntValidAndPure(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		sp := GenerateHunt(seed)
		huntSpecValid(t, sp)
		if again := GenerateHunt(seed); !reflect.DeepEqual(sp, again) {
			t.Fatalf("seed %d: GenerateHunt is not a pure function of its seed", seed)
		}
	}
}

func TestMutateKeepsSpecsValid(t *testing.T) {
	rng := sim.NewRNG(99)
	sp := GenerateHunt(1)
	// A long mutation chain must never leave the valid scenario space —
	// this is what lets Hunt evaluate children without re-validating.
	for i := 0; i < 300; i++ {
		sp = Mutate(sp, rng)
		huntSpecValid(t, sp)
	}
}

func TestEvaluateAdvantagePure(t *testing.T) {
	sp := GenerateHunt(3)
	a := EvaluateAdvantage(sp, nil)
	b := EvaluateAdvantage(sp, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec, different evals:\n%+v\n%+v", a, b)
	}
	if a.Err != "" {
		t.Fatalf("generated spec failed to evaluate: %s", a.Err)
	}
}

// TestHuntGenBestMonotone pins the elitism contract: with the best
// scenarios carried unchanged between generations, the per-generation
// best fitness can never regress on a fixed seed.
func TestHuntGenBestMonotone(t *testing.T) {
	report := Hunt(HuntConfig{Gens: 4, Pop: 8, Seed: 5, Workers: 2, ShrinkTop: -1})
	if len(report.GenBest) != 4 {
		t.Fatalf("GenBest has %d entries, want 4", len(report.GenBest))
	}
	for i := 1; i < len(report.GenBest); i++ {
		if report.GenBest[i] < report.GenBest[i-1] {
			t.Fatalf("best fitness regressed: gen %d %.3f < gen %d %.3f",
				i, report.GenBest[i], i-1, report.GenBest[i-1])
		}
	}
	if report.Best() != report.GenBest[len(report.GenBest)-1] {
		t.Fatalf("corpus best %.3f disagrees with final GenBest %.3f",
			report.Best(), report.GenBest[len(report.GenBest)-1])
	}
}

// bestHuntSpec returns the fittest of GenerateHunt(1..30) and its eval.
func bestHuntSpec() (Spec, HuntEval) {
	var spec Spec
	var best HuntEval
	for seed := uint64(1); seed <= 30; seed++ {
		sp := GenerateHunt(seed)
		if ev := EvaluateAdvantage(sp, nil); ev.Err == "" && ev.Fitness > best.Fitness {
			spec, best = sp, ev
		}
	}
	return spec, best
}

// TestShrinkHuntPreservesFitness pins the shrinker's hunt rule: the
// minimized spec must retain at least HuntShrinkSlack of the original
// advantage (where the invariant shrinker instead demands an identical
// failure key), and must never grow.
func TestShrinkHuntPreservesFitness(t *testing.T) {
	spec, orig := bestHuntSpec()
	if orig.Fitness <= 0 {
		t.Fatal("no seed in 1..30 produced positive advantage to shrink")
	}
	size := func(sp Spec) int {
		n := len(sp.Events) + sp.TCP
		for _, ss := range sp.Sessions {
			n += len(ss.Receivers) + len(ss.Cohorts)
		}
		return n
	}
	shrunk, ev := ShrinkHunt(spec, 40)
	if ev.Err != "" {
		t.Fatalf("shrunk spec fails to evaluate: %s", ev.Err)
	}
	if ev.Fitness < orig.Fitness*HuntShrinkSlack {
		t.Fatalf("shrunk fitness %.3f below the floor %.3f (%.0f%% of %.3f)",
			ev.Fitness, orig.Fitness*HuntShrinkSlack, 100*HuntShrinkSlack, orig.Fitness)
	}
	if size(shrunk) > size(spec) {
		t.Fatalf("shrinking grew the spec: %d -> %d elements", size(spec), size(shrunk))
	}
	huntSpecValid(t, shrunk)
}
