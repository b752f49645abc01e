package deltasigma_test

import (
	"bytes"
	"testing"

	"deltasigma"
	"deltasigma/internal/scenario"
)

// TestSweepMergeSound checks that Run's merging of grid points into
// shared experiments changes no byte of output: Run's JSON at
// -sweep-workers must equal the JSON of running every raw point on its
// own, and each sweep must make exactly the runs its key rules allow.
func TestSweepMergeSound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-scale shoot-out twice")
	}
	shootout, ok := scenario.LookupCampaign("shootout")
	if !ok {
		t.Fatal("shootout campaign not registered")
	}
	short := func(sw deltasigma.Sweep) deltasigma.Sweep {
		sw.Protocols = []string{"flid-ds"}
		sw.Receivers = []int{2}
		sw.Duration = 6 * deltasigma.Second
		sw.Seeds = []uint64{11}
		return sw
	}
	cases := []struct {
		name string
		sw   deltasigma.Sweep
		runs int
	}{
		// 168 points: adaptive attackers ignore the two onsets (−28), and
		// forging is classic on the four unprotected protocols (−32).
		{"shootout", shootout.Build(scenario.Options{Scale: 1, Seed: 2003}), 108},
		// Sweep.Events are the same on every point, so the adaptive
		// attacker still ignores the two onsets and they share one run.
		{"events", short(deltasigma.Sweep{
			Attackers:  []int{1},
			Strategies: []string{"adaptive"},
			AttackAts:  []deltasigma.Time{1500 * deltasigma.Millisecond, 3 * deltasigma.Second},
			Events:     []deltasigma.TimelineEvent{deltasigma.LinkSetCapacity{At: 2 * deltasigma.Second, Link: 0, Bps: 600_000}},
		}), 1},
		// Without attackers the strategy builds nothing; with one, classic
		// and forging differ on a protected protocol.
		{"attackers-0", short(deltasigma.Sweep{
			Attackers:  []int{0, 1},
			Strategies: []string{"classic", "forging"},
		}), 3},
		// A topology name is the network it builds: the two chain2 entries
		// share one run at different axis positions.
		{"topology-names", short(deltasigma.Sweep{
			Topologies: []string{"chain2", "chain2", "star2"},
		}), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs, err := c.sw.DistinctRuns()
			if err != nil {
				t.Fatal(err)
			}
			if runs != c.runs {
				t.Errorf("%d distinct runs of %d points, want %d", runs, c.sw.Size(), c.runs)
			}
			merged, err := c.sw.Run(*sweepWorkers)
			if err != nil {
				t.Fatal(err)
			}
			each, err := c.sw.RunEachPoint()
			if err != nil {
				t.Fatal(err)
			}
			got, err := merged.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := each.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merged run differs from running every point:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
