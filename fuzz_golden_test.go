package deltasigma_test

import (
	"encoding/json"
	"testing"

	"deltasigma/internal/fuzzing"
)

// fuzzGoldenSeeds is the pinned corpus size: seeds 1..64 of the scenario
// generator, summarized as seed → fingerprint → pass.
const fuzzGoldenSeeds = 64

// goldenJSON renders a fuzz or hunt report as its golden file holds it:
// indented, with a trailing newline.
func goldenJSON(v any) ([]byte, error) {
	js, err := json.MarshalIndent(v, "", "  ")
	return append(js, '\n'), err
}

// TestFuzzGolden locks the fuzzer end to end, alongside the sweep and
// churn goldens: the 64-seed corpus summary — which scenario every seed
// generates and what the audited run computes — is byte-identical across
// worker counts and pinned against testdata/fuzz_golden.json, so neither
// the generator, the engine, nor the audit layer can drift silently. The
// pinned corpus is all-pass: any engine change that breaks a conservation
// law flips a pass bit and fails here before CI's bigger fuzz-smoke runs.
func TestFuzzGolden(t *testing.T) {
	var serial []fuzzing.Summary
	checkGolden(t, "fuzz_golden.json", func(workers int) ([]byte, error) {
		sums := fuzzing.Summarize(fuzzing.Campaign(1, fuzzGoldenSeeds, workers))
		if workers == 1 {
			serial = sums
		}
		return goldenJSON(sums)
	})
	for _, s := range serial {
		if !s.Pass {
			t.Errorf("seed %d fails its invariants in the pinned corpus", s.Seed)
		}
	}
}
