package deltasigma_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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
