package deltasigma_test

import (
	"testing"

	"deltasigma/internal/fuzzing"
)

// huntGoldenConfig is the pinned search: small enough to run in test
// time, large enough to exercise generation, mutation, elitism and the
// shrinker end to end.
func huntGoldenConfig(workers int) fuzzing.HuntConfig {
	return fuzzing.HuntConfig{
		Gens: 4, Pop: 12, Seed: 1, Workers: workers,
		Keep: 6, ShrinkTop: 1, ShrinkBudget: 30,
	}
}

// TestHuntGolden locks the attack optimizer end to end, alongside the
// sweep, churn and fuzz goldens: the full hunt report — every ranked
// scenario, its measured advantage, and the shrunk repro — is
// byte-identical across worker counts and pinned against
// testdata/hunt_golden.json, so neither the generator, the mutator, the
// fitness measurement nor the engine underneath can drift silently.
func TestHuntGolden(t *testing.T) {
	var serial fuzzing.HuntReport
	checkGolden(t, "hunt_golden.json", func(workers int) ([]byte, error) {
		r := fuzzing.Hunt(huntGoldenConfig(workers))
		if workers == 1 {
			serial = r
		}
		return goldenJSON(r)
	})
	if serial.Best() <= 1 {
		t.Errorf("pinned hunt found no attacker advantage (best %.3f); the corpus should document real attacks", serial.Best())
	}
	if len(serial.Scenarios) == 0 || serial.Scenarios[0].Shrunk == nil {
		t.Fatalf("pinned hunt is missing the shrunk repro for its top scenario")
	}
}

// TestHuntBeatsRandom is the optimizer's acceptance bar: on a fixed seed
// the guided search must find strictly more attacker advantage than the
// best of 200 random samples from the same generator — otherwise the
// evolutionary loop is decoration on top of random fuzzing.
func TestHuntBeatsRandom(t *testing.T) {
	baseline := fuzzing.RandomBaseline(1, 200, *sweepWorkers)
	report := fuzzing.Hunt(fuzzing.HuntConfig{
		Gens: 8, Pop: 24, Seed: 1, Workers: *sweepWorkers, ShrinkTop: -1,
	})
	t.Logf("hunt best %.3f vs random baseline %.3f (%s)",
		report.Best(), baseline.Fitness, baseline.Attacker)
	if report.Best() <= baseline.Fitness {
		t.Errorf("hunt best %.3f does not beat the best of 200 random samples %.3f",
			report.Best(), baseline.Fitness)
	}
}
