package deltasigma_test

import (
	"testing"

	"deltasigma/internal/fuzzing"
)

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
