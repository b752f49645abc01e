package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// TestSteadyStateAllocationBudget pins the paper's §5.4 cost claim where
// this reproduction can break it: DELTA adds key fields to data packets and
// SIGMA one subscription message per receiver per slot, so once a protected
// session is warm, a slot must cost what a FLID-DL slot costs — no
// allocation per packet, per message or per receiver. Per-slot state is
// reset in place and everything a queued packet references recycles with
// its header, so what remains is what the design leaves on the GC heap on
// purpose — the slot's key-tuple slice, shared by every copy of its
// announcement: one per sender per slot — plus the rare growth of a meter
// series, ring or scratch buffer meeting its largest slot yet, which the
// average over many slots rounds away.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const (
		// Forty slots take a receiver's eight-entry accumulator ring
		// through every level it will oscillate between.
		warmSlots = 40
		runSlots  = 40
		// The sender's tuple slice, and room for the growth tail: measured
		// 1 on every row but the Shamir ones, which read 1–2 while share
		// lists of newly reached levels are still being sized.
		protectedBudget = 3
	)
	// Every row but the cohort's starts from two honest receivers.
	honest := func(s *deltasigma.ExperimentSession) { s.AddReceiver(); s.AddReceiver() }
	classic := func(s *deltasigma.ExperimentSession) { honest(s); s.AddAttacker().Inflate() }
	forging := func(s *deltasigma.ExperimentSession) {
		honest(s)
		s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyForging)).Inflate()
	}
	million := func(s *deltasigma.ExperimentSession) { s.AddCohort(1_000_000) }

	rows := []struct {
		protocol, members string
		populate          func(*deltasigma.ExperimentSession)
		budget            float64
	}{
		{"flid-ds", "honest", honest, protectedBudget},
		{"flid-ds", "classic", classic, protectedBudget},
		{"flid-ds", "forging", forging, protectedBudget},
		{"flid-ds-threshold", "honest", honest, protectedBudget},
		{"flid-ds-threshold", "classic", classic, protectedBudget},
		{"flid-ds-threshold", "forging", forging, protectedBudget},
		{"flid-ds-replicated", "honest", honest, protectedBudget},
		{"flid-ds-replicated", "classic", classic, protectedBudget},
		{"flid-ds-replicated", "forging", forging, protectedBudget},
		// The unprotected baseline and the rivals are not held to the
		// paper's claim; their rows pin what a warm slot measured when the
		// row was added, plus one for the growth tail, so the shoot-out's
		// cost cannot creep unseen. abr-cf has no attacker to add.
		{"flid-dl", "honest", honest, 2},
		{"flid-dl", "classic", classic, 1},
		{"mfcc", "honest", honest, 1},
		{"mfcc", "classic", classic, 1},
		{"dsc", "honest", honest, 8},
		{"dsc", "classic", classic, 7},
		{"abr-cf", "honest", honest, 7},
		// One fluid cohort of 10^6 members costs what its buckets cost,
		// not what its members would: slot tallies and the edge's
		// consolidation buckets recycle, so flid-dl measures 0 and flid-ds
		// its sender's tuple slice.
		{"flid-dl", "cohort-1M", million, 1},
		{"flid-ds", "cohort-1M", million, 2},
	}
	for _, row := range rows {
		t.Run(row.protocol+"/"+row.members, func(t *testing.T) {
			opts := append([]deltasigma.Option{
				deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(row.protocol), deltasigma.WithSeed(16),
			}, protocolOptions(row.protocol)...)
			exp := deltasigma.MustNew(opts...)
			row.populate(exp.AddSession(0))
			slot := exp.Slot()
			exp.Advance(warmSlots * slot)

			got := testing.AllocsPerRun(runSlots, func() { exp.Advance(exp.Now() + slot) })
			if got > row.budget {
				t.Fatalf("one warm slot of %s with %s members allocated %.1f times, budget %.0f", row.protocol, row.members, got, row.budget)
			}
			drainAndVerify(t, exp)
		})
	}
}

// An audit sample that finds nothing wrong allocates nothing: link labels
// and diagnostics are built on violation only, the flattened link list, the
// graft check's edges, groups and host scratch are kept between samples.
// (A fuzz campaign samples every experiment a few hundred times; labelling
// every link on every sample used to be half of its allocations.)
func TestCleanAuditSampleAllocatesNothing(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithStar(500_000, 250_000), deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithSeed(16), deltasigma.WithAudit())
	s := exp.AddSession(3)
	s.AddAttacker().Inflate()
	exp.AddSession(1)
	exp.Advance(5 * deltasigma.Second)

	audit := exp.Audit()
	audit.Check() // sizes the scratch
	if got := testing.AllocsPerRun(20, audit.Check); got != 0 {
		t.Fatalf("a clean audit sample allocated %.0f times", got)
	}
	if err := audit.Err(); err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, exp)
}
