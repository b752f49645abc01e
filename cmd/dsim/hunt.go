// The `dsim hunt` subcommand: the adversarial attack optimizer. Where
// `dsim fuzz` samples scenarios at random and checks invariants, hunt
// runs a fitness-guided evolutionary search over the same scenario space
// — mutating timelines, topologies, onset schedules, attacker placement
// and strategies — maximizing attacker advantage (attacker throughput
// over the honest median in the oracle window). The output is a ranked
// corpus of worst-known scenarios with shrunk repro specs, byte-identical
// at any -workers value.
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

func runHunt(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("dsim hunt", flag.ContinueOnError)
	gens := fs.Int("gens", 8, "generations of evolutionary search")
	pop := fs.Int("pop", 24, "population per generation")
	seed := fs.Uint64("seed", 1, "master seed for the whole search")
	workers := fs.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	outDir := fs.String("out", "", "directory for the corpus and repro files (empty = don't write)")
	keep := fs.Int("keep", 8, "ranked scenarios kept in the corpus")
	shrinkTop := fs.Int("shrink-top", 2, "top scenarios to shrink into minimal repros (0 = none)")
	shrinkBudget := fs.Int("shrink", fuzzing.DefaultHuntShrinkBudget, "max evaluation runs per shrink")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)
	if *gens <= 0 || *pop <= 1 {
		return fmt.Errorf("-gens must be positive and -pop at least 2, got %d and %d", *gens, *pop)
	}
	switch {
	case *keep < 1:
		return fmt.Errorf("-keep must be at least 1, got %d", *keep)
	case *shrinkTop < 0:
		return fmt.Errorf("-shrink-top must be non-negative, got %d", *shrinkTop)
	case *shrinkBudget < 1:
		return fmt.Errorf("-shrink must be at least 1, got %d", *shrinkBudget)
	}
	if *shrinkTop == 0 {
		*shrinkTop = -1 // HuntConfig reads 0 as its default of 2
	}

	report := fuzzing.Hunt(fuzzing.HuntConfig{
		Gens:         *gens,
		Pop:          *pop,
		Seed:         *seed,
		Workers:      *workers,
		Keep:         *keep,
		ShrinkTop:    *shrinkTop,
		ShrinkBudget: *shrinkBudget,
	})

	if *outDir != "" {
		if err := writeHuntCorpus(*outDir, report); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "hunt: %d generations x %d population (seed %d), %d evaluations\n",
			report.Config.Gens, report.Config.Pop, report.Config.Seed, report.Evaluated)
		fmt.Fprintf(out, "best per generation:")
		for _, b := range report.GenBest {
			fmt.Fprintf(out, " %.2f", b)
		}
		fmt.Fprintln(out)
		for _, sc := range report.Scenarios {
			fmt.Fprintf(out, "#%d advantage %.2fx  %s at %.0f Kbps vs honest median %.0f Kbps  (%s, gen %d)\n",
				sc.Rank, sc.Fitness, sc.Eval.Attacker, sc.Eval.AttackerKbps,
				sc.Eval.HonestMedianKbps, sc.Spec.Protocol, sc.Gen)
			if sc.Shrunk != nil {
				fmt.Fprintf(out, "    shrunk repro: %d receivers, %d events, advantage %.2fx\n",
					countReceivers(*sc.Shrunk), len(sc.Shrunk.Events), sc.ShrunkEval.Fitness)
			}
		}
	}
	if report.Best() <= 0 {
		return fmt.Errorf("hunt found no scenario with positive attacker advantage")
	}
	return nil
}

// writeHuntCorpus writes the full report plus one replayable repro file
// per shrunk scenario.
func writeHuntCorpus(dir string, report fuzzing.HuntReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "hunt_corpus.json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	for _, sc := range report.Scenarios {
		if sc.Shrunk == nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("hunt_repro_rank%d.json", sc.Rank))
		if err := fuzzing.WriteRepro(path, fuzzing.Repro{Spec: *sc.Shrunk}); err != nil {
			return err
		}
	}
	return nil
}

func countReceivers(sp fuzzing.Spec) int {
	n := 0
	for _, ss := range sp.Sessions {
		n += len(ss.Receivers)
	}
	return n
}
