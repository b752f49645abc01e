package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// millionSweep is the canned million-receiver campaign pinned by
// testdata/million_golden.json: both FLID variants carrying one aggregated
// cohort of 1,000,000 receivers per session, with Poisson churn across the
// population. The fluid model makes the per-point cost independent of the
// member count, so a seven-figure session fits in a unit test.
func millionSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:       "million-golden",
		Protocols:  []string{"flid-dl", "flid-ds"},
		Receivers:  []int{0},
		Cohorts:    []int{1_000_000},
		ChurnRates: []float64{0, 50},
		Duration:   6 * deltasigma.Second,
		Seeds:      []uint64{23},
	}
}

// TestMillionGolden locks the cohort subsystem's determinism at full scale:
// a seeded campaign with a million receivers per session produces
// byte-identical JSON across worker counts, pinned against
// testdata/million_golden.json.
func TestMillionGolden(t *testing.T) {
	var res *deltasigma.CampaignResult
	checkGolden(t, "million_golden.json", campaignGolden(millionSweep(), &res))
	if res.Failures != 0 {
		t.Fatalf("million sweep had %d failures", res.Failures)
	}
	// Every point must have delivered throughput to its population, or the
	// golden file pins a vacuous scenario.
	for _, p := range res.Points {
		if p.GoodMeanKbps <= 0 {
			t.Fatalf("point %s delivered nothing to its million receivers", p.Point)
		}
	}
}

// TestMillionUnderFullAudit runs a seeded session with a 1,000,000-receiver
// cohort under the complete periodic invariant audit — every conservation
// law sampled every virtual second, cohort conservation and private-edge
// graft consistency included — through churn and an attacker onset, and
// requires a clean drain.
func TestMillionUnderFullAudit(t *testing.T) {
	e := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithSeed(29),
		deltasigma.WithAudit(deltasigma.AuditEvery(deltasigma.Second)),
	)
	s := e.AddSession(0)
	c := s.AddCohort(1_000_000)
	s.AddAttacker()
	e.AddEvents(
		deltasigma.AttackerOnset{At: 4 * deltasigma.Second, Session: 1},
		deltasigma.PoissonChurn{Session: 1, Rate: 100, To: 10 * deltasigma.Second},
	)
	e.Advance(10 * deltasigma.Second)
	if c.Online() == 0 {
		t.Fatal("the million-member cohort never came online")
	}
	if got := c.Agent().Accounted(); got != 1_000_000 {
		t.Fatalf("cohort members not conserved: %d accounted of 1000000", got)
	}
	if vs := e.DrainAndAudit(2 * deltasigma.Second); len(vs) > 0 {
		for _, v := range vs {
			t.Error(v)
		}
	}
}
