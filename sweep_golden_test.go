package deltasigma_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"deltasigma"
)

// pinnedAxesSweep puts a non-default value on every axis of a Sweep, so
// TestSweepAxesPinned covers each axis's default, point decoding, String
// fragment and CSV column.
func pinnedAxesSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:         "axes",
		Protocols:    []string{"flid-dl", "flid-ds"},
		Topologies:   []string{"chain2", "star2"},
		Receivers:    []int{2},
		Attackers:    []int{1},
		Strategies:   []string{"forging", "adaptive"},
		Cohorts:      []int{50},
		Bottlenecks:  []int64{500_000},
		Slots:        []deltasigma.Time{250 * deltasigma.Millisecond},
		DelaySpreads: []deltasigma.Time{100 * deltasigma.Millisecond},
		ChurnRates:   []float64{0.5},
		AttackAts:    []deltasigma.Time{deltasigma.Second},
		FlapPeriods:  []deltasigma.Time{2 * deltasigma.Second},
		Seeds:        []uint64{3, 4},
		Duration:     3 * deltasigma.Second,
	}
}

// TestSweepAxesPinned byte-pins what a sweep emits on every axis: the
// sha256 of its JSON, of its CSV and of its points' String forms, at one
// worker and at -sweep-workers. The points digest was recorded before the
// sweep axes were read from one ordered list; the JSON and CSV digests
// were re-recorded when key receivers became one decision chain and the
// increase-signal period a function of the slot.
func TestSweepAxesPinned(t *testing.T) {
	const (
		wantJSON   = "3ab73ab7e021b114980d99e0537f372b2e23c4c4c8b8cd531f7f6d42c8f3810e"
		wantCSV    = "087eedccf81902b3b08c73ce380ccf4b671739c0a4ef05edb0f2a681c2a9ec16"
		wantPoints = "3b6538928f894dd889963603f8266bb2c7efa9f3b219817357991480f52d1cbb"
	)
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	sw := pinnedAxesSweep()
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(pts))
	for i, p := range pts {
		lines[i] = p.String()
	}
	if got := digest([]byte(strings.Join(lines, "\n"))); got != wantPoints {
		t.Errorf("points digest = %s, want %s", got, wantPoints)
	}
	for _, workers := range []int{1, *sweepWorkers} {
		res, err := sw.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("workers=%d: %d failures", workers, res.Failures)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if got := digest(js); got != wantJSON {
			t.Errorf("workers=%d: JSON digest = %s, want %s", workers, got, wantJSON)
		}
		if got := digest(csv.Bytes()); got != wantCSV {
			t.Errorf("workers=%d: CSV digest = %s, want %s", workers, got, wantCSV)
		}
	}
}
