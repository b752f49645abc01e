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
		budget = 3
	)
	attackers := []struct {
		name string
		add  func(s *deltasigma.ExperimentSession)
	}{
		{"honest", func(*deltasigma.ExperimentSession) {}},
		{"classic", func(s *deltasigma.ExperimentSession) { s.AddAttacker().Inflate() }},
		{"forging", func(s *deltasigma.ExperimentSession) {
			s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyForging)).Inflate()
		}},
	}
	for _, protocol := range []string{"flid-ds", "flid-ds-threshold", "flid-ds-replicated"} {
		for _, atk := range attackers {
			t.Run(protocol+"/"+atk.name, func(t *testing.T) {
				opts := append([]deltasigma.Option{
					deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(protocol), deltasigma.WithSeed(16),
				}, protocolOptions(protocol)...)
				exp := deltasigma.MustNew(opts...)
				s := exp.AddSession(2)
				atk.add(s)
				slot := exp.Slot()
				exp.Advance(warmSlots * slot)

				got := testing.AllocsPerRun(runSlots, func() { exp.Advance(exp.Now() + slot) })
				if got > budget {
					t.Fatalf("one warm slot of %s with a %s receiver set allocated %.1f times, budget %d", protocol, atk.name, got, budget)
				}
				drainAndVerify(t, exp)
			})
		}
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
