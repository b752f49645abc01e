package deltasigma_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasigma"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from the current engine")

// sweepWorkers is the parallel worker count the golden determinism tests
// compare against the serial run. CI's determinism job varies it to prove
// byte-identical output is independent of scheduling, not an artifact of
// one lucky worker count.
var sweepWorkers = flag.Int("sweep-workers", 8, "parallel worker count the golden sweep tests compare against workers=1")

// checkGolden is the procedure every golden test shares: render the pinned
// scenario at one worker and at -sweep-workers, require the two to be
// byte-identical, then rewrite testdata/<file> under -update-golden or
// byte-compare against it.
func checkGolden(t *testing.T, file string, run func(workers int) ([]byte, error)) {
	t.Helper()
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(*sweepWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("%s: output differs between -workers=1 and -workers=%d", file, *sweepWorkers)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, serial, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(serial, want) {
		t.Errorf("output diverged from golden file %s:\ngot:\n%s\nwant:\n%s", path, serial, want)
	}
}

// campaignGolden renders a sweep's campaign JSON for checkGolden and keeps
// the serial result in *serial for the caller's structure checks.
func campaignGolden(sw deltasigma.Sweep, serial **deltasigma.CampaignResult) func(int) ([]byte, error) {
	return func(workers int) ([]byte, error) {
		res, err := sw.Run(workers)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			*serial = res
		}
		return res.JSON()
	}
}

// goldenSweep is the small canned campaign pinned by testdata/sweep_golden.json:
// both FLID variants, with and without an attacker, one seed. The golden file
// was generated before the zero-allocation refactor of the event/packet hot
// path; byte-identical output proves the pooled engine replays the exact same
// simulation.
func goldenSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:      "golden",
		Protocols: []string{"flid-dl", "flid-ds"},
		Receivers: []int{2},
		Attackers: []int{0, 1},
		Duration:  6 * deltasigma.Second,
		Seeds:     []uint64{11},
	}
}

// TestSweepGolden locks sweep output against the pre-refactor golden file and
// against itself across worker counts: same seeds must mean byte-identical
// JSON no matter how the grid is scheduled or how packets and events are
// recycled internally.
func TestSweepGolden(t *testing.T) {
	var res *deltasigma.CampaignResult
	checkGolden(t, "sweep_golden.json", campaignGolden(goldenSweep(), &res))
	if res.Failures != 0 {
		t.Fatalf("golden sweep had %d failures", res.Failures)
	}
}

// pinnedAxesSweep puts a non-default value on every axis of a Sweep, so
// TestSweepAxesPinned covers each axis's default, point decoding, String
// fragment and CSV column.
func pinnedAxesSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:         "axes",
		Protocols:    []string{"flid-dl", "flid-ds"},
		Topologies:   []deltasigma.TopologySpec{deltasigma.ChainSpec(2), deltasigma.StarSpec(2)},
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
