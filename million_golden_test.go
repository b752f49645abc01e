package deltasigma_test

import (
	"testing"

	"deltasigma"
)

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
		deltasigma.WithTimeline(
			deltasigma.AttackerOnset{At: 4 * deltasigma.Second, Session: 1},
			deltasigma.PoissonChurn{Session: 1, Rate: 100, To: 10 * deltasigma.Second},
		),
	)
	s := e.AddSession(0)
	c := s.AddCohort(1_000_000)
	s.AddAttacker()
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
