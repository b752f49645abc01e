package deltasigma_test

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"deltasigma"
)

// testSweep is a small but multi-axis grid kept short enough for unit
// tests: 2 protocols × 2 receiver counts × 2 attacker counts = 8 points.
func testSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:      "unit",
		Protocols: []string{"flid-dl", "flid-ds"},
		Receivers: []int{1, 2},
		Attackers: []int{0, 1},
		Duration:  4 * deltasigma.Second,
		Seeds:     []uint64{7},
	}
}

func TestSweepGridOrderAndDefaults(t *testing.T) {
	sw := testSweep()
	if got := sw.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	// First axis (protocol) varies slowest: the first half is all flid-dl.
	for i, p := range pts {
		wantProto := "flid-dl"
		if i >= 4 {
			wantProto = "flid-ds"
		}
		if p.Protocol != wantProto {
			t.Fatalf("point %d protocol = %q, want %q", i, p.Protocol, wantProto)
		}
		if p.Topology != "dumbbell" {
			t.Fatalf("point %d topology = %q, want default dumbbell", i, p.Topology)
		}
		if p.BottleneckBps != 1_000_000 {
			t.Fatalf("point %d bottleneck = %d, want default 1M", i, p.BottleneckBps)
		}
		if p.Seed != 7 {
			t.Fatalf("point %d seed = %d, want 7", i, p.Seed)
		}
	}
	// Grid order is the nested loops over the axes in declaration order,
	// the last axis innermost.
	mixed := deltasigma.Sweep{
		Protocols: []string{"flid-dl", "flid-ds"},
		Receivers: []int{1, 2, 3},
		Seeds:     []uint64{5, 6},
	}
	pts, err = mixed.Points()
	if err != nil {
		t.Fatal(err)
	}
	var want []deltasigma.SweepPoint
	for _, proto := range mixed.Protocols {
		for _, n := range mixed.Receivers {
			for _, seed := range mixed.Seeds {
				want = append(want, deltasigma.SweepPoint{Protocol: proto, Topology: "dumbbell",
					Receivers: n, BottleneckBps: 1_000_000, Seed: seed})
			}
		}
	}
	if !slices.Equal(pts, want) || mixed.Size() != len(want) {
		t.Fatalf("Size %d, Points %v; want the nested loops %v", mixed.Size(), pts, want)
	}
}

// The campaign contract: the same sweep run serially and in parallel must
// serialize to byte-identical JSON and CSV.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	sw := testSweep()
	serial, err := sw.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sw.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	js1, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	js8, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js8) {
		t.Fatalf("JSON differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", js1, js8)
	}
	var csv1, csv8 bytes.Buffer
	if err := serial.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&csv8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv8.Bytes()) {
		t.Fatal("CSV differs between workers=1 and workers=8")
	}
	if serial.Failures != 0 {
		t.Fatalf("unexpected failures: %d", serial.Failures)
	}
	// The run must have produced real data, not deterministic zeros.
	for i, p := range serial.Points {
		if p.GoodMeanKbps <= 0 {
			t.Fatalf("point %d (%v) has no good throughput", i, p.Point)
		}
		if p.Utilization <= 0 {
			t.Fatalf("point %d (%v) has no utilization", i, p.Point)
		}
	}
}

// A failing grid point (unknown protocol) reports through its
// PointResult.Error; the pool neither deadlocks nor poisons the healthy
// points.
func TestSweepFailingPointDoesNotPoisonCampaign(t *testing.T) {
	sw := deltasigma.Sweep{
		Protocols: []string{"flid-ds", "no-such-protocol"},
		Duration:  2 * deltasigma.Second,
	}
	res, err := sw.Run(runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	healthy, failed := res.Points[0], res.Points[1]
	if healthy.Error != "" || healthy.GoodMeanKbps <= 0 {
		t.Fatalf("healthy point corrupted: %+v", healthy)
	}
	if failed.Error == "" || !strings.Contains(failed.Error, "no-such-protocol") {
		t.Fatalf("failed point error = %q, want mention of the unknown protocol", failed.Error)
	}
	if failed.Point.Protocol != "no-such-protocol" {
		t.Fatalf("failed point lost its identity: %+v", failed.Point)
	}
	// The failure must also survive serialization.
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "no-such-protocol") {
		t.Fatal("CSV lost the failed point")
	}
}

// A point that panics while it builds is contained to that point:
// flid-ds-replicated has no fluid cohort model, so AddCohort panics.
func TestSweepPanickingPointIsContained(t *testing.T) {
	sw := deltasigma.Sweep{
		Protocols: []string{"flid-ds", "flid-ds-replicated"},
		Cohorts:   []int{10},
		Duration:  2 * deltasigma.Second,
	}
	res, err := sw.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if res.Points[0].Error != "" || res.Points[0].GoodMeanKbps <= 0 {
		t.Fatalf("healthy point corrupted: %+v", res.Points[0])
	}
	if !strings.Contains(res.Points[1].Error, "AddCohort is not supported") {
		t.Fatalf("error = %q, want the panic message", res.Points[1].Error)
	}
	if res.Points[1].Point.Protocol != "flid-ds-replicated" {
		t.Fatalf("panicked point lost its identity: %+v", res.Points[1].Point)
	}
}

// Attackers actually run: under unprotected FLID-DL an inflating attacker
// out-earns the well-behaved mean (suppression < 0.5); under FLID-DS the
// attack is suppressed (suppression >= 0.5).
func TestSweepAttackerSuppressionMetric(t *testing.T) {
	sw := deltasigma.Sweep{
		Protocols: []string{"flid-dl", "flid-ds"},
		Receivers: []int{1},
		Attackers: []int{1},
		Duration:  30 * deltasigma.Second,
		AttackAt:  5 * deltasigma.Second,
		Seeds:     []uint64{3},
	}
	res, err := sw.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures: %+v", res.Points)
	}
	dl, ds := res.Points[0], res.Points[1]
	if dl.AttackerMeanKbps <= dl.GoodMeanKbps {
		t.Fatalf("FLID-DL attacker (%0.f Kbps) should out-earn the victim (%.0f Kbps)",
			dl.AttackerMeanKbps, dl.GoodMeanKbps)
	}
	if dl.Suppression >= 0.4 {
		t.Fatalf("FLID-DL suppression = %.3f, want well under 0.5 (attack succeeds)", dl.Suppression)
	}
	// Under FLID-DS the attacker is held to roughly the well-behaved mean:
	// suppression sits near the fair 0.5, far above the defeated baseline.
	if ds.Suppression < 0.45 {
		t.Fatalf("FLID-DS suppression = %.3f, want ~0.5 (attack defeated)", ds.Suppression)
	}
	if ds.Suppression <= dl.Suppression {
		t.Fatalf("FLID-DS suppression %.3f should exceed FLID-DL %.3f", ds.Suppression, dl.Suppression)
	}
}

// Custom topologies, slots and delay spreads flow through to the points.
func TestSweepCustomAxes(t *testing.T) {
	sw := deltasigma.Sweep{
		Topologies:   []string{"chain2", "star2"},
		Receivers:    []int{2},
		Slots:        []deltasigma.Time{250 * deltasigma.Millisecond},
		DelaySpreads: []deltasigma.Time{0, 100 * deltasigma.Millisecond},
		Bottlenecks:  []int64{500_000},
		Duration:     3 * deltasigma.Second,
	}
	res, err := sw.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	names := []string{"chain2", "chain2", "star2", "star2"}
	for i, p := range res.Points {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", i, p.Error)
		}
		if p.Point.Topology != names[i] {
			t.Fatalf("point %d topology = %q, want %q", i, p.Point.Topology, names[i])
		}
		if p.Point.SlotNs != 250*deltasigma.Millisecond {
			t.Fatalf("point %d slot = %v", i, p.Point.SlotNs)
		}
		if p.GoodMeanKbps <= 0 {
			t.Fatalf("point %d produced no throughput", i)
		}
	}
}

// Invalid sweep declarations fail Run upfront rather than per point, one
// row per check in Sweep's validation, each naming what it rejected.
func TestSweepValidation(t *testing.T) {
	const dur = 10 * deltasigma.Second
	bad := []struct {
		sw   deltasigma.Sweep
		want string
	}{
		{deltasigma.Sweep{Receivers: []int{-1}}, "receiver count -1 is negative"},
		{deltasigma.Sweep{Attackers: []int{-2}}, "attacker count -2 is negative"},
		{deltasigma.Sweep{Cohorts: []int{-3}}, "cohort population -3 is negative"},
		{deltasigma.Sweep{Bottlenecks: []int64{0}}, "bottleneck 0 must be positive"},
		{deltasigma.Sweep{Slots: []deltasigma.Time{-deltasigma.Second}}, "slot -1.000s is negative"},
		{deltasigma.Sweep{DelaySpreads: []deltasigma.Time{-1}}, "delay spread"},
		{deltasigma.Sweep{ChurnRates: []float64{-0.5}}, "churn rate -0.5 is negative"},
		{deltasigma.Sweep{AttackAts: []deltasigma.Time{-deltasigma.Second}}, "attack onset -1.000s is negative"},
		{deltasigma.Sweep{FlapPeriods: []deltasigma.Time{-deltasigma.Second}}, "flap period -1.000s is negative"},
		{deltasigma.Sweep{FlapPeriods: []deltasigma.Time{dur}, Duration: dur}, "flap period 10.000s must be inside duration"},
		{deltasigma.Sweep{Attackers: []int{1}, AttackAts: []deltasigma.Time{dur}, Duration: dur}, "attack onset 10.000s must be inside duration"},
		{deltasigma.Sweep{Strategies: []string{"bogus"}}, `attacker strategy "bogus" is not one of`},
		{deltasigma.Sweep{Duration: dur, Warmup: dur}, "warmup 10.000s must be shorter than duration"},
		{deltasigma.Sweep{Attackers: []int{1}, Duration: dur, AttackAt: dur}, "attack time 10.000s must be inside duration"},
		{deltasigma.Sweep{Topologies: []string{"hollow"}}, `topology "hollow" is not dumbbell, chain<N> or star<N>`},
		{deltasigma.Sweep{Topologies: []string{"chain0"}}, `topology "chain0" is not dumbbell, chain<N> or star<N> with N ≥ 1`},
		{deltasigma.Sweep{Topologies: []string{"star-3"}}, `topology "star-3" is not dumbbell, chain<N> or star<N> with N ≥ 1`},
		{deltasigma.Sweep{Topologies: []string{"dumbbell", "chain02"}}, `topology "chain02" is not`},
		{deltasigma.Sweep{Duration: -5 * deltasigma.Second}, "must not be negative"},
		{deltasigma.Sweep{Duration: dur, Warmup: -deltasigma.Second}, "must not be negative"},
		{deltasigma.Sweep{Duration: dur, AttackAt: -deltasigma.Second}, "must not be negative"},
	}
	// An out-of-range attack time is fine when no point has attackers.
	ok := deltasigma.Sweep{Duration: 2 * deltasigma.Second, AttackAt: 5 * deltasigma.Second}
	if _, err := ok.Run(1); err != nil {
		t.Fatalf("attacker-free sweep rejected: %v", err)
	}
	for i, tc := range bad {
		if _, err := tc.sw.Run(1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("sweep %d: error = %v, want substring %q", i, err, tc.want)
		}
	}
	// A grid past 2^30 points is refused before any point is decoded.
	huge := deltasigma.Sweep{Seeds: make([]uint64, 1<<16), Receivers: make([]int, 1<<15)}
	if n := huge.Size(); n != 0 {
		t.Fatalf("Size of a 2^31-point sweep = %d, want 0", n)
	}
	if _, err := huge.Points(); err == nil || !strings.Contains(err.Error(), "larger than 2^30 points") {
		t.Fatalf("Points of a 2^31-point sweep: error = %v, want the 2^30 cap", err)
	}
}
