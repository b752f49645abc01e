package fuzzing

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"

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

	auditOpts := []deltasigma.AuditOption{deltasigma.AuditEvery(AuditInterval)}
	if o := spec.Oracle; o != nil {
		auditOpts = append(auditOpts, deltasigma.AuditSuppression(deltasigma.SuppressionOracle{
			Session:   o.Session,
			From:      secs(o.FromSec),
			Factor:    o.Factor,
			FloorKbps: o.FloorKbps,
		}))
	}
	exp, err := spec.build(pool, deltasigma.WithAudit(auditOpts...))
	if err != nil {
		out.Err = err.Error()
		out.Fingerprint = fingerprint(specJSON, []byte(out.Err))
		return out
	}

	res := exp.Run(spec.Duration())
	out.Violations = exp.DrainAndAudit(DrainGrace)
	out.Pass = len(out.Violations) == 0
	exp.Close()

	resJSON, err := json.Marshal(res)
	if err != nil {
		out.Err = fmt.Sprintf("marshal result: %v", err)
		out.Pass = false
	}
	out.Fingerprint = fingerprint(specJSON, resJSON)
	return out
}

// build turns a spec into a wired experiment: its options, then extra,
// then pool when it is non-nil.
func (sp Spec) build(pool *deltasigma.PacketPool, extra ...deltasigma.Option) (*deltasigma.Experiment, error) {
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, extra...)
	if pool != nil {
		opts = append(opts, deltasigma.WithPacketPool(pool))
	}
	exp, err := deltasigma.New(opts...)
	if err != nil {
		return nil, err
	}
	return exp, sp.Wire(exp)
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
// bounded worker pool (0 = one worker per core GOMAXPROCS allows). Outcomes
// are indexed by seed offset, and each worker reuses one packet pool across
// its runs, so the returned slice is byte-identical for any worker count.
func Campaign(start uint64, n, workers int) []Outcome {
	return fanOut(n, workers,
		func(i int, pool *deltasigma.PacketPool) Outcome { return Run(Generate(start+uint64(i)), pool) },
		func(i int, err error) Outcome { return Outcome{Seed: start + uint64(i), Err: err.Error()} })
}

// fanOut runs job(i, pool) for i in 0..n-1 on the campaign worker pool,
// each worker reusing one packet pool, and stores results by index. A
// panic the job does not recover itself (generation, slice bookkeeping)
// becomes failed(i, err), never a zero value misattributed to index 0.
func fanOut[T any](n, workers int, job func(i int, pool *deltasigma.PacketPool) T, failed func(i int, err error) T) []T {
	out := make([]T, n)
	if n <= 0 {
		return out
	}
	pools := make([]*deltasigma.PacketPool, campaign.EffectiveWorkers(n, workers))
	for i := range pools {
		pools[i] = &deltasigma.PacketPool{}
	}
	errs := campaign.Run(n, workers, func(w, i int) error {
		out[i] = job(i, pools[w])
		return nil
	})
	for i, err := range errs {
		if err != nil {
			out[i] = failed(i, err)
		}
	}
	return out
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

// MalformedReproError is ReadRepro's refusal of a file that does not
// describe a runnable scenario: unreadable JSON, no session, a scalar out
// of range, a topology that cannot be built, or a reference the spec rules
// would drop.
type MalformedReproError struct {
	Path   string
	Reason string
}

func (e *MalformedReproError) Error() string { return e.Path + ": malformed repro: " + e.Reason }

// ReadRepro loads a repro file. A bare Spec (hand-written reproducer) is
// accepted alongside the full Repro shape the fuzzer writes. A file that
// is neither, or whose spec is malformed, is a *MalformedReproError.
func ReadRepro(path string) (Repro, error) {
	js, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	var r Repro
	if err := json.Unmarshal(js, &r); err != nil {
		return Repro{}, &MalformedReproError{path, err.Error()}
	}
	if len(r.Spec.Sessions) == 0 {
		r = Repro{}
		if err := json.Unmarshal(js, &r.Spec); err != nil || len(r.Spec.Sessions) == 0 {
			return Repro{}, &MalformedReproError{path, "neither a repro nor a spec: no sessions"}
		}
	}
	if reason := r.Spec.malformed(); reason != "" {
		return Repro{}, &MalformedReproError{path, reason}
	}
	return r, nil
}

// malformed names the first way sp is out of range, names a topology,
// protocol or attacker strategy that does not exist or cannot be built, or
// would change under normalize; it returns "" for a well-formed spec.
func (sp Spec) malformed() string {
	if !(sp.DurationSec > 0) {
		return fmt.Sprintf("duration_sec %g must be positive", sp.DurationSec)
	}
	// The file is refused for whatever Options or New refuse: a scalar out
	// of range, a topology that cannot be built, an unknown protocol, or a
	// schedule the protocol's slot cannot send.
	opts, err := sp.Options()
	var exp *deltasigma.Experiment
	if err == nil {
		exp, err = deltasigma.New(opts...)
	}
	if err != nil {
		return err.Error()
	}
	exp.Close()
	for si, ss := range sp.Sessions {
		for ri, rs := range ss.Receivers {
			if rs.Strategy != "" && !slices.Contains(huntStrategies, rs.Strategy) {
				return fmt.Sprintf("receiver S%dR%d has unknown attacker strategy %q (want one of %v)", si+1, ri+1, rs.Strategy, huntStrategies)
			}
		}
	}
	if norm := clone(sp); norm.normalize() {
		return "an event, the oracle or no_consolidation names a session, receiver, attacker, link, population or cohort the spec lacks"
	}
	return ""
}
