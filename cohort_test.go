package deltasigma_test

import (
	"math"
	"testing"

	"deltasigma"
	"deltasigma/internal/packet"
)

// cohortRun runs one 30-second dumbbell session of protocol proto carrying
// n honest members — as n individual receivers or as one cohort — plus the
// scripted dynamics, and reduces it to the aggregate statistics the
// consistency tests compare: highest honest level at the end, population-
// mean level, aggregate honest throughput in Kbps, and the highest honest
// level at any whole second of the run.
func cohortRun(t *testing.T, proto string, seed uint64, n int, asCohort bool, churnRate float64, attacker bool) (top int, mean, aggKbps float64, peak int) {
	t.Helper()
	const dur = 30 * deltasigma.Second
	var events []deltasigma.TimelineEvent
	if attacker {
		events = append(events, deltasigma.AttackerOnset{At: 10 * deltasigma.Second, Session: 1})
	}
	if churnRate > 0 {
		events = append(events, deltasigma.PoissonChurn{Session: 1, Rate: churnRate, To: dur})
	}
	e := deltasigma.MustNew(deltasigma.WithProtocol(proto), deltasigma.WithSeed(seed), deltasigma.WithTimeline(events...))
	s := e.AddSession(0)
	if asCohort {
		s.AddCohort(n)
	} else {
		for i := 0; i < n; i++ {
			s.AddReceiver()
		}
	}
	if attacker {
		s.AddAttacker()
	}
	var res *deltasigma.Result
	for at := deltasigma.Second; at <= dur; at += deltasigma.Second {
		res = e.Run(at)
		for _, r := range res.Receivers {
			if !r.Attacker {
				peak = max(peak, r.Level)
			}
		}
		if asCohort {
			peak = max(peak, res.Cohorts[0].Level)
		}
	}
	if asCohort {
		cr := res.Cohorts[0]
		return cr.Level, cr.MeanLevel, cr.AvgKbps, peak
	}
	var sumLvl float64
	for _, r := range res.Receivers {
		if r.Attacker {
			continue
		}
		sumLvl += float64(r.Level)
		aggKbps += r.AvgKbps
		if r.Level > top {
			top = r.Level
		}
	}
	return top, sumLvl / float64(n), aggKbps, peak
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestCohortConsistencyStatic is the fluid model's core fidelity claim: a
// cohort of N members that all start together is ONE bucket whose state is
// exactly an individual receiver's scaled by N, so its level trajectory
// must match N individual receivers' and its aggregate throughput must
// match their sum to within the skew of the cohort's extra stub hop.
func TestCohortConsistencyStatic(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		iTop, iMean, iAgg, _ := cohortRun(t, "flid-dl", 7, n, false, 0, false)
		cTop, cMean, cAgg, _ := cohortRun(t, "flid-dl", 7, n, true, 0, false)
		if cTop != iTop {
			t.Errorf("n=%d: cohort top level %d, individuals %d", n, cTop, iTop)
		}
		if d := math.Abs(cMean - iMean); d > 0.05 {
			t.Errorf("n=%d: cohort mean level %.3f vs individuals %.3f", n, cMean, iMean)
		}
		if d := relDiff(cAgg, iAgg); d > 0.02 {
			t.Errorf("n=%d: aggregate throughput off by %.1f%%: cohort %.0f vs individuals %.0f Kbps",
				n, 100*d, cAgg, iAgg)
		}
	}
}

// TestCohortConsistencyChurn checks the model under Poisson membership
// churn. Toggle realizations necessarily differ — a cohort member is an
// index into an exchangeable pool, not a specific receiver object — so
// the comparison is statistical and starts at N=100, where the population
// mean is stable across realizations.
func TestCohortConsistencyChurn(t *testing.T) {
	for _, n := range []int{100, 1000} {
		iTop, iMean, iAgg, _ := cohortRun(t, "flid-dl", 7, n, false, 2, false)
		cTop, cMean, cAgg, _ := cohortRun(t, "flid-dl", 7, n, true, 2, false)
		if d := cTop - iTop; d < -1 || d > 1 {
			t.Errorf("n=%d: cohort top level %d vs individuals %d", n, cTop, iTop)
		}
		if d := relDiff(cMean, iMean); d > 0.10 {
			t.Errorf("n=%d: mean level off by %.1f%%: cohort %.3f vs individuals %.3f",
				n, 100*d, cMean, iMean)
		}
		if d := relDiff(cAgg, iAgg); d > 0.10 {
			t.Errorf("n=%d: aggregate throughput off by %.1f%%: cohort %.0f vs individuals %.0f Kbps",
				n, 100*d, cAgg, iAgg)
		}
	}
}

// TestCohortConsistencyAttackerOnset checks the model through a mid-run
// inflated-subscription onset: on unprotected FLID-DL the attack crushes
// every honest receiver to the minimal level, and the cohort must be
// crushed identically.
func TestCohortConsistencyAttackerOnset(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		iTop, iMean, iAgg, _ := cohortRun(t, "flid-dl", 7, n, false, 0, true)
		cTop, cMean, cAgg, _ := cohortRun(t, "flid-dl", 7, n, true, 0, true)
		if cTop != iTop {
			t.Errorf("n=%d: cohort top level %d, individuals %d", n, cTop, iTop)
		}
		if d := math.Abs(cMean - iMean); d > 0.05 {
			t.Errorf("n=%d: cohort mean level %.3f vs individuals %.3f", n, cMean, iMean)
		}
		if d := relDiff(cAgg, iAgg); d > 0.02 {
			t.Errorf("n=%d: aggregate throughput off by %.1f%%: cohort %.0f vs individuals %.0f Kbps",
				n, 100*d, cAgg, iAgg)
		}
	}
}

// TestCohortMatchesExactPerProtocol is the fluid-vs-exact differential over
// every protocol that takes cohorts. A cohort moves its buckets by the FLID
// rule on the kernel's tally, so where exact receivers run that rule on
// plain IGMP (flid-dl, dsc) the two must agree as closely as the static
// FLID-DL check demands, at 1 % throughput. Exact DS receivers reach their
// level through keys and SIGMA grants, which the fluid model idealizes
// away. Until a slot is lossy the two make the same decisions, so they
// climb to the same peak. After it they part: a lossy slot can cost an
// exact receiver its whole key chain and a keyless rejoin from level 1
// (Figure 4), and the §3.1.1 contradiction rule can hold a level the
// plain rule drops. The fluid model runs neither, so on this congested
// path a DS cohort is held to the peak alone.
func TestCohortMatchesExactPerProtocol(t *testing.T) {
	for _, proto := range deltasigma.Protocols() {
		p, _ := deltasigma.LookupProtocol(proto)
		if !p.Cohorts {
			continue
		}
		t.Run(proto, func(t *testing.T) {
			t.Parallel() // each protocol's runs are independent experiments
			for _, seed := range []uint64{7, 2003} {
				for _, n := range []int{10, 100, 1000} {
					iTop, iMean, iAgg, iPeak := cohortRun(t, proto, seed, n, false, 0, false)
					cTop, cMean, cAgg, cPeak := cohortRun(t, proto, seed, n, true, 0, false)
					t.Logf("seed %d n=%d: top %d/%d, peak %d/%d, mean %.3f/%.3f, aggregate %.0f/%.0f Kbps (exact/cohort)",
						seed, n, iTop, cTop, iPeak, cPeak, iMean, cMean, iAgg, cAgg)
					if cPeak != iPeak {
						t.Errorf("seed %d n=%d: cohort peak level %d, individuals %d", seed, n, cPeak, iPeak)
					}
					if p.Protected {
						continue
					}
					if cTop != iTop {
						t.Errorf("seed %d n=%d: cohort top level %d, individuals %d", seed, n, cTop, iTop)
					}
					if d := math.Abs(cMean - iMean); d > 0.05 {
						t.Errorf("seed %d n=%d: cohort mean level %.3f vs individuals %.3f", seed, n, cMean, iMean)
					}
					if d := relDiff(cAgg, iAgg); d > 0.01 {
						t.Errorf("seed %d n=%d: aggregate throughput off by %.2f%%: cohort %.0f vs individuals %.0f Kbps",
							seed, n, 100*d, cAgg, iAgg)
					}
				}
			}
		})
	}
}

// feedbackAtRoot runs nCohorts cohorts of `members` each for 20 seconds and
// returns the count of feedback reports that reached the session source.
func feedbackAtRoot(t *testing.T, members, nCohorts int, consolidate bool) uint64 {
	t.Helper()
	e := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithSeed(3),
		deltasigma.WithFeedbackConsolidation(consolidate),
	)
	s := e.AddSession(0)
	for i := 0; i < nCohorts; i++ {
		s.AddCohort(members)
	}
	e.Advance(20 * deltasigma.Second)
	return s.Source().Received[packet.ProtoFeedback]
}

// TestFeedbackConsolidationScalesWithFanOut is the control-plane scaling
// claim: with hierarchical consolidation, feedback volume at the root is a
// function of the distribution tree's fan-out (and the slot clock), not of
// the receiver population — 100× more receivers, same packet count at the
// source. Without consolidation the root sees every cohort's report.
func TestFeedbackConsolidationScalesWithFanOut(t *testing.T) {
	small := feedbackAtRoot(t, 250, 4, true)    // 1,000 receivers
	large := feedbackAtRoot(t, 25_000, 4, true) // 100,000 receivers
	if small == 0 {
		t.Fatal("no consolidated feedback reached the root")
	}
	if small != large {
		t.Errorf("root feedback volume moved with population: %d reports at 1k receivers, %d at 100k", small, large)
	}

	raw := feedbackAtRoot(t, 250, 4, false)
	if raw < 3*small {
		t.Errorf("consolidation saved too little: %d raw reports vs %d consolidated for 4 cohorts", raw, small)
	}
}

// TestCohortAuditClean runs a churned cohort experiment under the full
// periodic audit — including the new cohort-conservation and private-edge
// graft-consistency rules — and requires a clean drain.
func TestCohortAuditClean(t *testing.T) {
	e := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithSeed(5),
		deltasigma.WithAudit(deltasigma.AuditEvery(deltasigma.Second)),
		deltasigma.WithTimeline(deltasigma.PoissonChurn{Session: 1, Rate: 5, To: 10 * deltasigma.Second}),
	)
	s := e.AddSession(2)
	c := s.AddCohort(10_000)
	e.Advance(10 * deltasigma.Second)
	if got := c.Agent().Accounted(); got != c.Members() {
		t.Fatalf("cohort members not conserved: %d accounted of %d", got, c.Members())
	}
	if vs := e.DrainAndAudit(2 * deltasigma.Second); len(vs) > 0 {
		for _, v := range vs {
			t.Error(v)
		}
	}
}

// TestAddCohortRejectsReplicated pins the facade guard: the replicated
// protocol carries no layered FLID data for the fluid model to observe.
func TestAddCohortRejectsReplicated(t *testing.T) {
	e := deltasigma.MustNew(deltasigma.WithProtocol("flid-ds-replicated"))
	s := e.AddSession(0)
	defer func() {
		if recover() == nil {
			t.Fatal("AddCohort on the replicated protocol did not panic")
		}
	}()
	s.AddCohort(10)
}
