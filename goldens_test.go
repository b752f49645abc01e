package deltasigma_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasigma"
	"deltasigma/internal/fuzzing"
	"deltasigma/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from the current engine")

// sweepWorkers is the parallel worker count the golden determinism tests
// compare against the serial run. CI's determinism job varies it to prove
// byte-identical output is independent of scheduling, not an artifact of
// one lucky worker count.
var sweepWorkers = flag.Int("sweep-workers", 8, "parallel worker count the golden sweep tests compare against workers=1")

// checkGolden is the procedure every golden row shares: render the pinned
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
// the serial result in *serial for the row's structure checks.
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

// goldenJSON renders a fuzz or hunt report as its golden file holds it:
// indented, with a trailing newline.
func goldenJSON(v any) ([]byte, error) {
	js, err := json.MarshalIndent(v, "", "  ")
	return append(js, '\n'), err
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

// dynamicsSweep is the canned campaign pinned by testdata/churn_golden.json:
// every family of mid-run dynamics at once — Poisson membership churn, a
// late attacker onset, a bottleneck capacity drop and a brief flap — so the
// golden file locks the entire timeline layer, not just static grids.
func dynamicsSweep() deltasigma.Sweep {
	return deltasigma.Sweep{
		Name:       "churn-golden",
		Protocols:  []string{"flid-dl", "flid-ds"},
		Receivers:  []int{3},
		Attackers:  []int{1},
		ChurnRates: []float64{0, 1.5},
		AttackAts:  []deltasigma.Time{3 * deltasigma.Second},
		Duration:   6 * deltasigma.Second,
		Seeds:      []uint64{17},
		// The same scripted path events on every point: the bottleneck
		// loses 40% of its capacity mid-run, and flaps once near the end.
		Events: []deltasigma.TimelineEvent{
			deltasigma.LinkSetCapacity{At: 4 * deltasigma.Second, Link: 0, Bps: 600_000},
			deltasigma.LinkDown{At: 5 * deltasigma.Second, Link: 0},
			deltasigma.LinkUp{At: 5*deltasigma.Second + 200*deltasigma.Millisecond, Link: 0},
		},
	}
}

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

// shootoutSweep is the canned competitor campaign pinned by
// testdata/shootout_golden.json: every registered protocol — the paper
// variants and the competitor suite alike — against three attacker models,
// at the scaled-down grid the CI determinism job replays.
func shootoutSweep() deltasigma.Sweep {
	c, ok := scenario.LookupCampaign("shootout")
	if !ok {
		panic("shootout campaign not registered")
	}
	return c.Build(scenario.Options{Scale: 0.2, Seed: 2003})
}

// fuzzGoldenSeeds is the pinned corpus size: seeds 1..64 of the scenario
// generator, summarized as seed → fingerprint → pass.
const fuzzGoldenSeeds = 64

// huntGoldenConfig is the pinned search: small enough to run in test
// time, large enough to exercise generation, mutation, elitism and the
// shrinker end to end.
func huntGoldenConfig(workers int) fuzzing.HuntConfig {
	return fuzzing.HuntConfig{
		Gens: 4, Pop: 12, Seed: 1, Workers: workers,
		Keep: 6, ShrinkTop: 1, ShrinkBudget: 30,
	}
}

// noFailures is the structure check every campaign row shares: no point
// of the pinned campaign failed.
func noFailures(t *testing.T, res *deltasigma.CampaignResult) {
	t.Helper()
	if res.Failures != 0 {
		t.Fatalf("%s had %d failures", res.Name, res.Failures)
	}
}

// TestGoldens locks every pinned end-to-end output against its file in
// testdata and against itself across worker counts: same seeds must mean
// byte-identical output no matter how the work is scheduled or how packets
// and events are recycled internally. Each row renders its scenario at one
// worker and at -sweep-workers (checkGolden), then runs its own structure
// checks on the serial result, so a golden file cannot pin a vacuous run.
//
//   - sweep: both FLID variants with and without an attacker; the file
//     predates the zero-allocation hot path.
//   - churn: the dynamics layer — Poisson churn, a late attacker onset and
//     scripted link events.
//   - million: the cohort subsystem at full scale, a million receivers per
//     session.
//   - shootout: the full protocol registry under classic, adaptive and
//     forging attackers. Attackerless protocols (abr-cf) fail their
//     attacker points with the typed no-attacker reason — the interesting
//     structural result — and every other point must succeed.
//   - fuzz: the 64-seed corpus summary — which scenario every seed
//     generates and what the audited run computes. The pinned corpus is
//     all-pass: an engine change that breaks a conservation law flips a
//     pass bit here before CI's bigger fuzz-smoke runs.
//   - hunt: the attack optimizer's full report — every ranked scenario,
//     its measured advantage and the shrunk repro.
func TestGoldens(t *testing.T) {
	var (
		sweep, churn, million, shootout *deltasigma.CampaignResult
		fuzzSums                        []fuzzing.Summary
		hunt                            fuzzing.HuntReport
	)
	rows := []struct {
		name, file string
		run        func(workers int) ([]byte, error)
		check      func(t *testing.T)
	}{
		{"sweep", "sweep_golden.json", campaignGolden(goldenSweep(), &sweep), func(t *testing.T) {
			noFailures(t, sweep)
		}},
		{"churn", "churn_golden.json", campaignGolden(dynamicsSweep(), &churn), func(t *testing.T) {
			noFailures(t, churn)
			// The churned points must actually have churned, or the golden
			// file pins a vacuous scenario.
			for _, p := range churn.Points {
				if p.Point.ChurnRate > 0 && p.GoodMeanKbps != 0 {
					return
				}
			}
			t.Fatal("no churned point produced throughput — scenario is vacuous")
		}},
		{"million", "million_golden.json", campaignGolden(millionSweep(), &million), func(t *testing.T) {
			noFailures(t, million)
			// Every point must have delivered throughput to its population,
			// or the golden file pins a vacuous scenario.
			for _, p := range million.Points {
				if p.GoodMeanKbps <= 0 {
					t.Fatalf("point %s delivered nothing to its million receivers", p.Point)
				}
			}
		}},
		{"shootout", "shootout_golden.json", campaignGolden(shootoutSweep(), &shootout), func(t *testing.T) {
			// Only attackerless protocols may fail, and each of their points
			// must carry the typed no-attacker reason; every protocol with
			// an attacker must post a suppression reading.
			suppressed := map[string]bool{}
			for _, p := range shootout.Points {
				hasAtk := deltasigma.ProtocolHasAttacker(p.Point.Protocol)
				switch {
				case !hasAtk && p.Error == "":
					t.Errorf("point %s: attackerless protocol ran an attacker point without error", p.Point)
				case !hasAtk && !strings.Contains(p.Error, "no inflated-subscription attacker"):
					t.Errorf("point %s: error %q is not the typed no-attacker reason", p.Point, p.Error)
				case hasAtk && p.Error != "":
					t.Errorf("point %s failed: %s", p.Point, p.Error)
				case hasAtk && p.Suppression > 0:
					suppressed[p.Point.Protocol] = true
				}
			}
			for _, name := range deltasigma.Protocols() {
				if deltasigma.ProtocolHasAttacker(name) && !suppressed[name] {
					t.Errorf("protocol %s posted no suppression reading — shoot-out is vacuous for it", name)
				}
			}
		}},
		{"fuzz", "fuzz_golden.json", func(workers int) ([]byte, error) {
			sums := fuzzing.Summarize(fuzzing.Campaign(1, fuzzGoldenSeeds, workers))
			if workers == 1 {
				fuzzSums = sums
			}
			return goldenJSON(sums)
		}, func(t *testing.T) {
			for _, s := range fuzzSums {
				if !s.Pass {
					t.Errorf("seed %d fails its invariants in the pinned corpus", s.Seed)
				}
			}
		}},
		{"hunt", "hunt_golden.json", func(workers int) ([]byte, error) {
			r := fuzzing.Hunt(huntGoldenConfig(workers))
			if workers == 1 {
				hunt = r
			}
			return goldenJSON(r)
		}, func(t *testing.T) {
			if hunt.Best() <= 1 {
				t.Errorf("pinned hunt found no attacker advantage (best %.3f); the corpus should document real attacks", hunt.Best())
			}
			if len(hunt.Scenarios) == 0 || hunt.Scenarios[0].Shrunk == nil {
				t.Fatalf("pinned hunt is missing the shrunk repro for its top scenario")
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			checkGolden(t, row.file, row.run)
			row.check(t)
		})
	}
}
