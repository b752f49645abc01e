// The `dsim fuzz` subcommand: machine-generate seeded adversarial
// scenarios — random-but-valid topologies, protocols, populations, cross
// traffic and timelines — and run each one under the full invariant-audit
// layer on a worker pool. Failures are shrunk to minimal reproducers and
// written as JSON files that -repro replays.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deltasigma/internal/fuzzing"
)

func runFuzz(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("dsim fuzz", flag.ContinueOnError)
	n := fs.Int("n", 64, "number of scenarios to generate and run")
	seed := fs.Uint64("seed", 1, "first fuzz seed; scenarios use seed..seed+n-1")
	workers := fs.Int("workers", 0, "worker goroutines (0 = one per CPU)")
	jsonOut := fs.Bool("json", false, "emit the per-seed summary as JSON")
	outDir := fs.String("out", ".", "directory for repro files of failing seeds")
	repro := fs.String("repro", "", "replay a repro file instead of fuzzing")
	verbose := fs.Bool("v", false, "print one line per scenario")
	shrink := fs.Int("shrink", fuzzing.DefaultShrinkBudget, "max runs spent minimizing each failure (0 disables shrinking)")
	shards := fs.Int("shards", -1, "request WithShards on every scenario (0 = auto, -1 = off); audited runs fall back to serial, so fingerprints never move")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)
	if *shards < -1 {
		return fmt.Errorf("-shards must be -1 (off), 0 (auto) or a positive shard count, got %d", *shards)
	}
	fuzzing.ShardRequest = *shards

	if *repro != "" {
		return replayRepro(*repro, *jsonOut, out)
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}

	outs := fuzzing.Campaign(*seed, *n, *workers)
	sums := fuzzing.Summarize(outs)
	failures := 0
	for i, o := range outs {
		if o.Failed() {
			failures++
			path, err := writeFailureRepro(*outDir, fuzzing.Generate(o.Seed), o, *shrink)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "seed %d FAILED (%s): repro written to %s\n", o.Seed, failureSummary(o), path)
		} else if *verbose && !*jsonOut {
			fmt.Fprintf(out, "seed %d ok %s\n", o.Seed, sums[i].Fingerprint)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sums); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "%d scenarios (seeds %d..%d), %d failed\n", *n, *seed, *seed+uint64(*n)-1, failures)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d fuzzed scenarios violated invariants", failures, *n)
	}
	return nil
}

// writeFailureRepro shrinks a failing seed's spec (budget permitting) and
// writes the minimal reproducer, returning its path.
func writeFailureRepro(dir string, spec fuzzing.Spec, o fuzzing.Outcome, budget int) (string, error) {
	if budget > 0 {
		spec, o = fuzzing.Shrink(spec, budget)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("fuzz_repro_%d.json", o.Seed))
	if err := fuzzing.WriteRepro(path, fuzzing.Repro{Spec: spec, Outcome: o}); err != nil {
		return "", err
	}
	return path, nil
}

// failureSummary compresses an outcome's diagnostics into one line.
func failureSummary(o fuzzing.Outcome) string {
	if o.Err != "" {
		return o.Err
	}
	if len(o.Violations) == 0 {
		return "failed"
	}
	s := o.Violations[0].Rule
	if len(o.Violations) > 1 {
		s += fmt.Sprintf(" +%d more", len(o.Violations)-1)
	}
	return s
}

// replayRepro re-runs a repro file's spec under full audit and reports.
func replayRepro(path string, jsonOut bool, out io.Writer) error {
	r, err := fuzzing.ReadRepro(path)
	if err != nil {
		return err
	}
	res := fuzzing.Run(r.Spec, nil)
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "repro %s (seed %d): fingerprint %s\n", path, res.Seed, res.Fingerprint)
		for _, v := range res.Violations {
			fmt.Fprintf(out, "  %v\n", v)
		}
		if res.Err != "" {
			fmt.Fprintf(out, "  error: %s\n", res.Err)
		}
	}
	if res.Failed() {
		return fmt.Errorf("repro still fails (%s)", failureSummary(res))
	}
	fmt.Fprintln(out, "repro passes — the underlying bug appears fixed")
	return nil
}
