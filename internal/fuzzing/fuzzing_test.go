package fuzzing

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deltasigma"
)

// failingSpec is a handcrafted scenario that deterministically fails: the
// suppression oracle pointed at the unprotected FLID-DL baseline, where
// the inflated-subscription attack succeeds by design. The junk around it
// (second session, cross traffic, a harmless link-delay event) is what the
// shrinker should strip away.
func failingSpec() Spec {
	return Spec{
		Seed:        5,
		Protocol:    "flid-dl",
		Topology:    deltasigma.TopologySpec{Kind: "dumbbell", CapacitiesBps: []int64{600_000}},
		DurationSec: 10,
		Sessions: []SessionSpec{
			{Receivers: []ReceiverSpec{{}, {}, {Attacker: true}}},
			{Receivers: []ReceiverSpec{{}}},
		},
		TCP:         1,
		CBRFraction: 0.2,
		Events: []EventSpec{
			{Kind: EvOnset, AtSec: 2, Session: 1, Receiver: 3},
			{Kind: EvDelay, AtSec: 3, Link: 0, DelayMs: 25},
		},
		Oracle: &OracleSpec{Session: 1, FromSec: 6, Factor: 1.25, FloorKbps: 30},
	}
}

// A spec is a pure function of its seed, and it survives a JSON round trip
// field for field — the property repro files depend on.
func TestGenerateDeterministicAndSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
		js, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("seed %d: spec changed across JSON round trip:\n%+v\n%+v", seed, a, back)
		}
	}
}

// Generated specs build valid experiments: every option and timeline event
// must resolve (a generator that emits invalid specs would report build
// errors as fuzz findings and drown real ones).
func TestGeneratedSpecsAreValid(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		sp := Generate(seed)
		opts, err := sp.Options()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exp, err := deltasigma.New(opts...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sp.Wire(exp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exp.Start() // panics on an unresolvable timeline
	}
}

// Same seed, same run: re-running a spec reproduces the fingerprint, with
// and without a warm shared pool.
func TestRunReproducible(t *testing.T) {
	sp := Generate(17)
	a := Run(sp, nil)
	pool := &deltasigma.PacketPool{}
	b := Run(sp, pool)
	c := Run(sp, pool) // the now-warm pool must not change the outcome
	if a.Fingerprint != b.Fingerprint || b.Fingerprint != c.Fingerprint {
		t.Fatalf("fingerprints diverge: %s / %s / %s", a.Fingerprint, b.Fingerprint, c.Fingerprint)
	}
	if !a.Pass {
		t.Fatalf("seed 17 unexpectedly fails: %+v", a.Violations)
	}
}

// Campaign outcomes are identical at any worker count — the property the
// fuzz-smoke CI job and the golden corpus rely on.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	serial := Campaign(1, 12, 1)
	parallel := Campaign(1, 12, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("campaign outcomes differ between workers=1 and workers=4:\n%+v\n%+v", serial, parallel)
	}
	for _, o := range serial {
		if o.Failed() {
			t.Errorf("seed %d failed: %+v %s", o.Seed, o.Violations, o.Err)
		}
	}
}

// The runner detects failures: the oracle on the unprotected baseline
// produces a suppression violation, typed and serializable.
func TestRunDetectsOracleFailure(t *testing.T) {
	out := Run(failingSpec(), nil)
	if !out.Failed() {
		t.Fatal("flid-dl attack under the oracle did not fail")
	}
	if len(out.Violations) == 0 || out.Violations[0].Rule != "suppression-oracle" {
		t.Fatalf("expected a suppression-oracle violation, got %+v (err %q)", out.Violations, out.Err)
	}
}

// A spec that cannot build reports through Err instead of panicking the
// campaign.
func TestRunContainsBuildErrors(t *testing.T) {
	sp := failingSpec()
	sp.Protocol = "no-such-protocol"
	out := Run(sp, nil)
	if !out.Failed() || out.Err == "" {
		t.Fatalf("bad protocol not surfaced: %+v", out)
	}
	sp = failingSpec()
	sp.Events = append(sp.Events, EventSpec{Kind: EvOnset, AtSec: 1, Session: 9})
	out = Run(sp, nil)
	if !out.Failed() || out.Err == "" {
		t.Fatalf("unresolvable timeline not surfaced: %+v", out)
	}

	// Attackers the facade refuses — only a hand-edited repro asks for them
	// — come back from Wire as the facade's typed errors, not as panics.
	sp = failingSpec()
	sp.Sessions[0].Receivers[2].Strategy = "bribery"
	var use *deltasigma.UnknownStrategyError
	if err := wireFresh(t, sp); !errors.As(err, &use) {
		t.Fatalf("Wire(unknown strategy) = %v, want *UnknownStrategyError", err)
	}
	if out = Run(sp, nil); !out.Failed() || out.Err == "" || strings.HasPrefix(out.Err, "panic") {
		t.Fatalf("unknown strategy not surfaced as an error: %+v", out)
	}
	sp = failingSpec()
	sp.Protocol = "abr-cf"
	var nae *deltasigma.NoAttackerError
	if err := wireFresh(t, sp); !errors.As(err, &nae) {
		t.Fatalf("Wire(attacker on abr-cf) = %v, want *NoAttackerError", err)
	}
	if out = Run(sp, nil); !out.Failed() || strings.HasPrefix(out.Err, "panic") {
		t.Fatalf("attacker on an attackerless protocol not surfaced as an error: %+v", out)
	}
}

// wireFresh builds sp's experiment and returns what Wire says.
func wireFresh(t *testing.T, sp Spec) error {
	t.Helper()
	opts, err := sp.Options()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := deltasigma.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sp.Wire(exp)
}

// Shrinking keeps the failure and strips the junk: the decoy session, the
// cross traffic and the irrelevant link event all go; the attacker, its
// onset and at least one honest receiver must survive (without them the
// oracle comparison is vacuous and the candidate passes, so the shrinker
// can never remove them).
func TestShrinkMinimizesFailingSpec(t *testing.T) {
	spec, out := Shrink(failingSpec(), 0)
	if !out.Failed() {
		t.Fatal("shrunk spec no longer fails")
	}
	if len(spec.Sessions) != 1 {
		t.Errorf("decoy session survived: %d sessions", len(spec.Sessions))
	}
	if spec.TCP != 0 || spec.CBRFraction != 0 {
		t.Errorf("cross traffic survived: tcp=%d cbr=%g", spec.TCP, spec.CBRFraction)
	}
	for _, ev := range spec.Events {
		if ev.Kind == EvDelay {
			t.Errorf("irrelevant delay event survived")
		}
	}
	honest, attackers := populations(spec.Sessions[0])
	if attackers == 0 || honest == 0 {
		t.Fatalf("shrink removed a load-bearing receiver: honest=%d attackers=%d", honest, attackers)
	}
	hasOnset := false
	for _, ev := range spec.Events {
		if ev.Kind == EvOnset {
			hasOnset = true
		}
	}
	if !hasOnset {
		t.Error("shrink removed the attack onset yet the spec still fails")
	}
	// The minimized spec must replay its own failure from serialized form.
	js, _ := json.Marshal(spec)
	var back Spec
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if re := Run(back, nil); !re.Failed() || re.Fingerprint != out.Fingerprint {
		t.Fatalf("serialized repro does not replay: pass=%v fp %s vs %s", re.Pass, re.Fingerprint, out.Fingerprint)
	}
}

// Repros minimize across protocol swaps: a suppression failure staged on
// the dsc competitor also reproduces on the plain FLID-DL baseline (both
// are unprotected, so the inflated subscription wins either way), and the
// shrinker must land there. A failure that only the original protocol
// exhibits keeps its protocol — swapping an attacker-carrying spec onto
// abr-cf trips the typed no-attacker panic, a different failure key, so
// the swap pass can never sneak one in.
func TestShrinkMinimizesAcrossProtocolSwaps(t *testing.T) {
	sp := failingSpec()
	sp.Protocol = "dsc"
	if out := Run(sp, nil); !out.Failed() {
		t.Fatalf("dsc attack under the oracle did not fail: %+v", out)
	}
	shrunk, out := Shrink(sp, 0)
	if !out.Failed() {
		t.Fatal("shrunk spec no longer fails")
	}
	if shrunk.Protocol != "flid-dl" {
		t.Errorf("repro not minimized across protocol swaps: protocol %q, want flid-dl", shrunk.Protocol)
	}
	if len(out.Violations) == 0 || out.Violations[0].Rule != "suppression-oracle" {
		t.Fatalf("swap changed the failure class: %+v (err %q)", out.Violations, out.Err)
	}
	honest, attackers := populations(shrunk.Sessions[0])
	if attackers == 0 || honest == 0 {
		t.Fatalf("swap pass lost a load-bearing receiver: honest=%d attackers=%d", honest, attackers)
	}
	// The swapped repro must replay its own failure from serialized form.
	js, _ := json.Marshal(shrunk)
	var back Spec
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if re := Run(back, nil); !re.Failed() || re.Fingerprint != out.Fingerprint {
		t.Fatalf("swapped repro does not replay: pass=%v fp %s vs %s", re.Pass, re.Fingerprint, out.Fingerprint)
	}
}

// A load-bearing cohort is collapsed to the smallest member count that
// still reproduces, not dropped: here the cohort is the attacked session's
// only honest population, so removing it makes the oracle vacuous and the
// candidate passes — the shrinker must instead halve the membership all the
// way down to one.
func TestShrinkCollapsesCohortToSmallestCount(t *testing.T) {
	sp := cohortSpec()
	if out := Run(sp, nil); !out.Failed() {
		t.Fatalf("cohort under attack did not trip the oracle: %+v", out)
	}
	shrunk, out := Shrink(sp, 0)
	if !out.Failed() {
		t.Fatal("shrunk spec no longer fails")
	}
	co := shrunk.Sessions[0].Cohorts
	if len(co) != 1 {
		t.Fatalf("load-bearing cohort removed: %v", co)
	}
	if co[0] != 1 {
		t.Errorf("cohort not collapsed to the minimal count: %d members", co[0])
	}
	if re := Run(shrunk, nil); !re.Failed() || re.Fingerprint != out.Fingerprint {
		t.Fatalf("collapsed repro does not replay: pass=%v", re.Pass)
	}
}

// cohortSpec is an attack whose only honest population is one cohort.
func cohortSpec() Spec {
	return Spec{
		Seed:        9,
		Protocol:    "flid-dl",
		Topology:    deltasigma.TopologySpec{Kind: "dumbbell", CapacitiesBps: []int64{600_000}},
		DurationSec: 10,
		Sessions: []SessionSpec{{
			Receivers: []ReceiverSpec{{Attacker: true}},
			Cohorts:   []int{100_000},
		}},
		Events: []EventSpec{{Kind: EvOnset, AtSec: 2, Session: 1, Receiver: 1}},
		Oracle: &OracleSpec{Session: 1, FromSec: 6, Factor: 1.25, FloorKbps: 30},
	}
}

// TestShrinkOutputsPinned pins what both shrinkers return, byte for byte:
// the sha256 of the shrunk spec's JSON and of its Outcome or HuntEval JSON.
// The small budgets run out in the middle of a pass; at budget 6 the hunt
// reaches its shrunk spec only because candidates that lost the oracle
// are rejected without spending budget. The values were recorded before
// Shrink and ShrinkHunt shared one walk.
func TestShrinkOutputsPinned(t *testing.T) {
	dsc := failingSpec()
	dsc.Protocol = "dsc"
	hunt, _ := bestHuntSpec()
	shrink := func(sp Spec, budget int) func() (Spec, any) {
		return func() (Spec, any) { return Shrink(sp, budget) }
	}
	shrinkHunt := func(sp Spec, budget int) func() (Spec, any) {
		return func() (Spec, any) { return ShrinkHunt(sp, budget) }
	}
	cases := []struct {
		name      string
		shrink    func() (Spec, any)
		spec, out string
	}{
		{
			"failing/0", shrink(failingSpec(), 0),
			"e9afc42e058383a812c46b0d89b162ed88a17e7d3f27f67038fee807ee042811",
			"494e2f437933953264500551c9e096a6e4afc01fe9d423fefae5d93f05a527ee",
		},
		{
			"failing/5", shrink(failingSpec(), 5),
			"e79ae5181cc47ada183735ffd3a191126388b988b3a7a89247cb3cee3f61b7b5",
			"e15842bc9008b1ad9fb043bb87975f6917b2fbd8cbb09faca9cec5aede148c5c",
		},
		{
			"dsc/0", shrink(dsc, 0),
			"e9afc42e058383a812c46b0d89b162ed88a17e7d3f27f67038fee807ee042811",
			"494e2f437933953264500551c9e096a6e4afc01fe9d423fefae5d93f05a527ee",
		},
		{
			"dsc/9", shrink(dsc, 9),
			"e57dade920c7f3b9033a73c79d218c3465c4ce9d074d4d3b23ad1b58eedc7473",
			"6d37c4ad3062a2d4b84fcfdf6ed61ab1a9687e3cc02cc1a08041c42c1332e5db",
		},
		{
			"cohort/0", shrink(cohortSpec(), 0),
			"53ba81aeafe8d57f6de96ccbb406a5661d3a5a345c22617e608a358ce70eb9d1",
			"605182a2150bb5edd3f7d334c2c3d0220f096698a38e0912bb4c819f507880f9",
		},
		{
			"hunt/40", shrinkHunt(hunt, 40),
			"536238716406ca8f513313de51df56a5d60dc9db4af9ed6f3af6e54330f76fae",
			"8bd5d0157a7e47e346e58773e81f7cbf8d43cbcb8f004defb567572946bd297a",
		},
		{
			"hunt/7", shrinkHunt(hunt, 7),
			"536238716406ca8f513313de51df56a5d60dc9db4af9ed6f3af6e54330f76fae",
			"8bd5d0157a7e47e346e58773e81f7cbf8d43cbcb8f004defb567572946bd297a",
		},
		{
			"hunt/6", shrinkHunt(hunt, 6),
			"536238716406ca8f513313de51df56a5d60dc9db4af9ed6f3af6e54330f76fae",
			"8bd5d0157a7e47e346e58773e81f7cbf8d43cbcb8f004defb567572946bd297a",
		},
	}
	digest := func(v any) string {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(js))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, out := tc.shrink()
			if got := digest(sp); got != tc.spec {
				t.Errorf("shrunk spec sha256 %s, want %s", got, tc.spec)
			}
			if got := digest(out); got != tc.out {
				t.Errorf("outcome sha256 %s, want %s", got, tc.out)
			}
		})
	}
}

// Repro files round-trip and replay.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repro_5.json")
	spec, out := Shrink(failingSpec(), 40)
	if err := WriteRepro(path, Repro{Spec: spec, Outcome: out}); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Spec, spec) {
		t.Fatalf("repro spec changed on disk:\n%+v\n%+v", r.Spec, spec)
	}
	replay := Run(r.Spec, nil)
	if replay.Fingerprint != out.Fingerprint || !replay.Failed() {
		t.Fatalf("repro does not replay: %+v vs %+v", replay, out)
	}
}

// A bare Spec file (hand-written reproducer) loads too.
func TestReadBareSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	js, _ := json.Marshal(failingSpec())
	if err := writeFile(path, js); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Spec, failingSpec()) {
		t.Fatalf("bare spec mangled: %+v", r.Spec)
	}
}

// A file that is neither a repro nor a spec is an error naming the file,
// not an empty repro that fails for an unrelated reason when replayed.
func TestReadReproRejectsNonRepro(t *testing.T) {
	for _, body := range []string{`{}`, `{"spec":{}}`} {
		path := filepath.Join(t.TempDir(), "empty.json")
		if err := writeFile(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		if r, err := ReadRepro(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: ReadRepro = %+v, %v; want an error naming the file", body, r, err)
		}
	}
}

// writeFile is a tiny test helper (os.WriteFile with the repro mode).
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
