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
// reset in place and everything a queued packet references — headers,
// their pairs and tuples — recycles with its envelope, so a warm slot
// allocates nothing: for every protocol, every attacker strategy and a
// 10^6-member cohort alike.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const (
		// Forty slots take a receiver's eight-entry accumulator ring
		// through every level it will oscillate between.
		warmSlots = 40
		runSlots  = 40
	)
	// Every row but the cohort's starts from two honest receivers.
	honest := func(s *deltasigma.ExperimentSession) { s.AddReceiver(); s.AddReceiver() }
	classic := func(s *deltasigma.ExperimentSession) { honest(s); s.AddAttacker().Inflate() }
	forging := func(s *deltasigma.ExperimentSession) {
		honest(s)
		s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyForging)).Inflate()
	}
	colluding := func(s *deltasigma.ExperimentSession) {
		honest(s)
		for i := 0; i < 2; i++ {
			s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyColluding)).Inflate()
		}
	}
	// An adaptive attacker inflates on its own schedule (its fallback
	// onset, here), well inside the warm-up.
	adaptive := func(s *deltasigma.ExperimentSession) {
		honest(s)
		s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyAdaptive))
	}
	million := func(s *deltasigma.ExperimentSession) { s.AddCohort(1_000_000) }
	// A lone receiver leaves the upper groups without a branch, so the
	// source sends them as doomed stand-ins; the row must measure some.
	const doomedUpper = "doomed-upper"
	lone := func(s *deltasigma.ExperimentSession) { s.AddReceiver() }

	rows := []struct {
		protocol, members string
		populate          func(*deltasigma.ExperimentSession)
	}{
		{"flid-ds", "honest", honest},
		{"flid-ds", "classic", classic},
		{"flid-ds", "forging", forging},
		{"flid-ds", "colluding", colluding},
		{"flid-ds", "adaptive", adaptive},
		{"flid-ds-threshold", "honest", honest},
		{"flid-ds-threshold", "classic", classic},
		{"flid-ds-threshold", "forging", forging},
		{"flid-ds-threshold", "colluding", colluding},
		{"flid-ds-threshold", "adaptive", adaptive},
		{"flid-ds-replicated", "honest", honest},
		{"flid-ds-replicated", "classic", classic},
		{"flid-ds-replicated", "forging", forging},
		{"flid-ds-replicated", "colluding", colluding},
		{"flid-ds-replicated", "adaptive", adaptive},
		// The unprotected baseline and the rivals are held to the same
		// zero, so the shoot-out's cost cannot creep unseen. abr-cf has no
		// attacker to add.
		{"flid-dl", "honest", honest},
		{"flid-dl", "classic", classic},
		{"mfcc", "honest", honest},
		{"mfcc", "classic", classic},
		{"dsc", "honest", honest},
		{"dsc", "classic", classic},
		{"abr-cf", "honest", honest},
		// One fluid cohort of 10^6 members costs what its buckets cost,
		// not what its members would: slot tallies and the edge's
		// consolidation buckets recycle.
		{"flid-dl", "cohort-1M", million},
		{"flid-ds", "cohort-1M", million},
		{"flid-ds", doomedUpper, lone},
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

			access := exp.Topo.Network().OutLinks(exp.Sessions()[0].Source().ID())[0]
			doomed := access.Doomed
			got := testing.AllocsPerRun(runSlots, func() { exp.Advance(exp.Now() + slot) })
			if got != 0 {
				t.Fatalf("one warm slot of %s with %s members allocated %.1f times, want 0", row.protocol, row.members, got)
			}
			if row.members == doomedUpper && access.Doomed == doomed {
				t.Fatalf("%s sent no doomed packet in the measured slots", row.protocol)
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
	exp := deltasigma.MustNew(
		deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{500_000, 250_000}}),
		deltasigma.WithProtocol("flid-ds"), deltasigma.WithSeed(16), deltasigma.WithAudit())
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
