package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// dynamicsSweep is the canned campaign pinned by testdata/churn_golden.json:
// every family of mid-run dynamics at once — Poisson membership churn, a
// late attacker onset, a bottleneck capacity drop and a brief flap — so the
// golden file locks the entire timeline layer, not just static grids.
func dynamicsSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:       "churn-golden",
		Protocols:  []string{"flid-dl", "flid-ds"},
		Receivers:  []int{3},
		Attackers:  []int{1},
		ChurnRates: []float64{0, 1.5},
		AttackAts:  []deltasigma.Time{3 * deltasigma.Second},
		Duration:   6 * deltasigma.Second,
		Seeds:      []uint64{17},
		Configure: func(p deltasigma.SweepPoint, e *deltasigma.Experiment) error {
			// One scripted path event per point: the bottleneck loses 40%
			// of its capacity mid-run, and flaps once near the end.
			e.AddEvents(
				deltasigma.LinkSetCapacity{At: 4 * deltasigma.Second, Link: 0, Bps: 600_000},
				deltasigma.LinkDown{At: 5 * deltasigma.Second, Link: 0},
				deltasigma.LinkUp{At: 5*deltasigma.Second + 200*deltasigma.Millisecond, Link: 0},
			)
			return nil
		},
	}
}

// TestDynamicsGolden locks the dynamics layer's determinism: a seeded
// experiment with Poisson churn, late attacker onset and scripted link
// events produces byte-identical JSON across worker counts, pinned against
// testdata/churn_golden.json so engine changes cannot silently reshuffle
// seeded dynamic runs.
func TestDynamicsGolden(t *testing.T) {
	var res *deltasigma.CampaignResult
	checkGolden(t, "churn_golden.json", campaignGolden(dynamicsSweep(), &res))
	if res.Failures != 0 {
		t.Fatalf("dynamics sweep had %d failures", res.Failures)
	}
	// The churned points must actually have churned, or the golden file
	// pins a vacuous scenario.
	churned := false
	for _, p := range res.Points {
		if p.Point.ChurnRate > 0 && p.GoodMeanKbps != 0 {
			churned = true
		}
	}
	if !churned {
		t.Fatal("no churned point produced throughput — scenario is vacuous")
	}
}
