package fuzzing

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"deltasigma"
	"deltasigma/internal/campaign"
)

// Runner parameters: every generated scenario runs under the full audit —
// periodic sampling plus the end-of-run conservation checks — and gets a
// post-stop drain long enough for queued data, in-flight retransmissions
// and SIGMA control exchanges to terminate.
const (
	// AuditInterval is the during-run sampling period.
	AuditInterval = 250 * deltasigma.Millisecond
	// DrainGrace is the virtual time allowed for the network to drain
	// after StopTraffic before pool balance is asserted.
	DrainGrace = 10 * deltasigma.Second
)

// ShardRequest, when above 1 (or 0 for automatic), builds every scenario
// with WithShards. Fuzzed scenarios run under the full audit, which forces
// the serial fallback, so outcomes and fingerprints are identical to a
// plain campaign — the knob exists exactly to prove that: the golden
// corpus must not move however sharding is requested. Set it before
// Campaign; campaign workers read it concurrently.
var ShardRequest = -1

// Outcome is the result of running one spec: a pass/fail verdict, the
// scenario fingerprint, and the violations when the audit tripped. An
// Outcome is a pure function of its Spec, so a campaign's outcome list is
// identical at any worker count.
type Outcome struct {
	Seed uint64 `json:"seed"`
	// Fingerprint digests the spec and the typed result of the run; two
	// runs of the same spec must produce the same fingerprint, on any
	// machine, at any worker count — the reproducibility gauge the golden
	// corpus pins.
	Fingerprint string `json:"fingerprint"`
	Pass        bool   `json:"pass"`
	// Violations holds the audit diagnostics of a failing run.
	Violations []deltasigma.Violation `json:"violations,omitempty"`
	// Err records a build failure or panic instead of violations.
	Err string `json:"error,omitempty"`
}

// Failed reports whether the run tripped the audit or errored.
func (o Outcome) Failed() bool { return !o.Pass }

// Run executes one spec under full audit. pool may be nil (a fresh pool is
// used) or a campaign worker's reusable pool — pooling never changes the
// outcome, only where packet envelopes come from. Panics anywhere in the
// experiment are converted into a failing Outcome.
func Run(spec Spec, pool *deltasigma.PacketPool) (out Outcome) {
	out.Seed = spec.Seed
	specJSON, err := json.Marshal(spec)
	if err != nil {
		out.Err = fmt.Sprintf("marshal spec: %v", err)
		return out
	}
	defer func() {
		if r := recover(); r != nil {
			out.Pass = false
			out.Err = fmt.Sprintf("panic: %v", r)
			out.Fingerprint = fingerprint(specJSON, []byte(out.Err))
		}
	}()

	opts, err := spec.Options()
	if err != nil {
		out.Err = err.Error()
		out.Fingerprint = fingerprint(specJSON, []byte(out.Err))
		return out
	}
	auditOpts := []deltasigma.AuditOption{deltasigma.AuditEvery(AuditInterval)}
	if o := spec.Oracle; o != nil {
		auditOpts = append(auditOpts, deltasigma.AuditSuppression(deltasigma.SuppressionOracle{
			Session:   o.Session,
			From:      secs(o.FromSec),
			Factor:    o.Factor,
			FloorKbps: o.FloorKbps,
		}))
	}
	opts = append(opts, deltasigma.WithAudit(auditOpts...))
	if ShardRequest >= 0 {
		opts = append(opts, deltasigma.WithShards(ShardRequest))
	}
	if pool != nil {
		opts = append(opts, deltasigma.WithPacketPool(pool))
	}
	exp, err := deltasigma.New(opts...)
	if err != nil {
		out.Err = err.Error()
		out.Fingerprint = fingerprint(specJSON, []byte(out.Err))
		return out
	}
	if err := spec.Wire(exp); err != nil {
		out.Err = err.Error()
		out.Fingerprint = fingerprint(specJSON, []byte(out.Err))
		return out
	}

	res := exp.Run(spec.Duration())
	out.Violations = exp.DrainAndAudit(DrainGrace)
	out.Pass = len(out.Violations) == 0

	// The fingerprint pins what the simulation computed; how execution was
	// dispatched (the sharding request's disposition) is metadata and must
	// not move the corpus digest.
	res.Sharding = nil
	resJSON, err := json.Marshal(res)
	if err != nil {
		out.Err = fmt.Sprintf("marshal result: %v", err)
		out.Pass = false
	}
	out.Fingerprint = fingerprint(specJSON, resJSON)
	return out
}

// fingerprint digests the spec and the run's typed result into 16 hex
// characters (FNV-1a 64).
func fingerprint(specJSON, resultJSON []byte) string {
	h := fnv.New64a()
	h.Write(specJSON)
	h.Write([]byte{0})
	h.Write(resultJSON)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Campaign generates and runs n scenarios for seeds start..start+n-1 on a
// bounded worker pool (0 = one worker per CPU). Outcomes are indexed by
// seed offset, and each worker reuses one packet pool across its runs, so
// the returned slice is byte-identical for any worker count.
func Campaign(start uint64, n, workers int) []Outcome {
	outs := make([]Outcome, n)
	if n <= 0 {
		return outs
	}
	pools := make([]*deltasigma.PacketPool, campaign.EffectiveWorkers(n, workers))
	for i := range pools {
		pools[i] = &deltasigma.PacketPool{}
	}
	errs := campaign.Run(n, workers, func(w, i int) error {
		outs[i] = Run(Generate(start+uint64(i)), pools[w])
		return nil
	})
	// Run recovers panics itself, but the pool also contains panics raised
	// outside it (Generate, slice bookkeeping); without this backfill such
	// a job would leave a zero Outcome misattributed to seed 0.
	for i, err := range errs {
		if err != nil {
			outs[i] = Outcome{Seed: start + uint64(i), Err: err.Error()}
		}
	}
	return outs
}

// Summary is one line of the fuzz corpus digest — what the golden file
// pins per seed.
type Summary struct {
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`
	Pass        bool   `json:"pass"`
}

// Summarize reduces campaign outcomes to their pinnable digest.
func Summarize(outs []Outcome) []Summary {
	sums := make([]Summary, len(outs))
	for i, o := range outs {
		sums[i] = Summary{Seed: o.Seed, Fingerprint: o.Fingerprint, Pass: o.Pass}
	}
	return sums
}

// ---------------------------------------------------------------------------
// Repro files.

// Repro is the self-contained reproducer written for a failing seed: the
// minimal spec the shrinker arrived at plus the outcome it produced.
type Repro struct {
	Spec    Spec    `json:"spec"`
	Outcome Outcome `json:"outcome"`
}

// WriteRepro writes a repro file as indented JSON.
func WriteRepro(path string, r Repro) error {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// ReadRepro loads a repro file. A bare Spec (hand-written reproducer) is
// accepted alongside the full Repro shape the fuzzer writes.
func ReadRepro(path string) (Repro, error) {
	js, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	var r Repro
	if err := json.Unmarshal(js, &r); err != nil {
		return Repro{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Spec.Sessions) == 0 {
		var sp Spec
		if err := json.Unmarshal(js, &sp); err == nil && len(sp.Sessions) > 0 {
			r = Repro{Spec: sp}
		}
	}
	return r, nil
}
