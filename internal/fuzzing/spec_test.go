package fuzzing

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"deltasigma"
	"deltasigma/internal/sim"
)

// checkNormalized fails when normalize would change sp: every producer of
// specs — the generators, the hunt's repair and mutation, both shrinkers —
// must already emit specs inside the one rule set.
func checkNormalized(t *testing.T, what string, sp Spec) {
	t.Helper()
	before, _ := json.Marshal(sp)
	norm := clone(sp)
	changed := norm.normalize()
	after, _ := json.Marshal(norm)
	if changed || string(before) != string(after) {
		t.Fatalf("%s: normalize changed the spec (reported %v):\n%s\n%s", what, changed, before, after)
	}
}

func TestNormalizeKeepsValidSpecs(t *testing.T) {
	for seed := uint64(1); seed <= 500; seed++ {
		checkNormalized(t, fmt.Sprintf("Generate(%d)", seed), Generate(seed))
		checkNormalized(t, fmt.Sprintf("GenerateHunt(%d)", seed), GenerateHunt(seed))
	}
	rng := sim.NewRNG(99)
	sp := GenerateHunt(1)
	for i := 0; i < 300; i++ {
		sp = Mutate(sp, rng)
		checkNormalized(t, fmt.Sprintf("mutation %d", i+1), sp)
	}
	js, err := os.ReadFile(filepath.Join("..", "..", "testdata", "hunt_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report HuntReport
	if err := json.Unmarshal(js, &report); err != nil {
		t.Fatal(err)
	}
	for _, sc := range report.Scenarios {
		checkNormalized(t, fmt.Sprintf("hunt golden rank %d", sc.Rank), sc.Spec)
		if sc.Shrunk != nil {
			checkNormalized(t, fmt.Sprintf("hunt golden rank %d shrunk", sc.Rank), *sc.Shrunk)
		}
	}
}

// specRow is one hand edit of failingSpec, as a repro file might carry it.
type specRow struct {
	name string
	edit func(*Spec)
}

// readEdited writes the edited spec as a bare repro file and reads it back.
func readEdited(t *testing.T, row specRow) error {
	t.Helper()
	sp := failingSpec()
	row.edit(&sp)
	js, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := writeFile(path, js); err != nil {
		t.Fatal(err)
	}
	_, err = ReadRepro(path)
	var mre *MalformedReproError
	if err != nil && !errors.As(err, &mre) {
		t.Fatalf("%s: ReadRepro error %v is not a *MalformedReproError", row.name, err)
	}
	return err
}

// buildAndStart reports whether the edited spec builds and starts, a panic
// counting as a failure.
func buildAndStart(row specRow) (err error) {
	sp := failingSpec()
	row.edit(&sp)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	exp, err := sp.build(nil)
	if err != nil {
		return err
	}
	exp.Start()
	return nil
}

// The spec rules and the facade agree: for every row, ReadRepro refuses
// the file exactly when building and starting its spec fails or panics.
// failingSpec has session 1 = two honest receivers and an attacker,
// session 2 = one honest receiver, and one dumbbell link.
func TestReadReproRejectsWhatBuildRejects(t *testing.T) {
	ev := func(e EventSpec) func(*Spec) {
		return func(sp *Spec) { sp.Events = append(sp.Events, e) }
	}
	rows := []specRow{
		{"as written", func(*Spec) {}},
		{"onset on a missing receiver", ev(EventSpec{Kind: EvOnset, AtSec: 1, Session: 1, Receiver: 9})},
		{"onset on a missing session", ev(EventSpec{Kind: EvOnset, AtSec: 1, Session: 3, Receiver: 1})},
		{"onset on an honest receiver", ev(EventSpec{Kind: EvOnset, AtSec: 1, Session: 1, Receiver: 1})},
		{"stop on an honest receiver", ev(EventSpec{Kind: EvStop, AtSec: 4, Session: 1, Receiver: 2})},
		{"every-attacker onset, no attackers", ev(EventSpec{Kind: EvOnset, AtSec: 1, Session: 2})},
		{"every-attacker onset", ev(EventSpec{Kind: EvOnset, AtSec: 1, Session: 1})},
		{"join on a missing receiver", ev(EventSpec{Kind: EvJoin, AtSec: 1, Session: 2, Receiver: 2})},
		{"leave on an attacker", ev(EventSpec{Kind: EvLeave, AtSec: 4, Session: 1, Receiver: 3})},
		{"churn on a missing session", ev(EventSpec{Kind: EvChurn, Session: 0, Rate: 1, FromSec: 1, ToSec: 5})},
		{"churn on attackers only", func(sp *Spec) {
			sp.Sessions[1].Receivers[0].Attacker = true
			sp.Events = append(sp.Events, EventSpec{Kind: EvChurn, Session: 2, Rate: 1, FromSec: 1, ToSec: 5})
		}},
		{"churn on a cohort", func(sp *Spec) {
			sp.Sessions[1] = SessionSpec{Cohorts: []int{50}}
			sp.Events = append(sp.Events, EventSpec{Kind: EvChurn, Session: 2, Rate: 1, FromSec: 1, ToSec: 5})
		}},
		{"capacity on a missing link", ev(EventSpec{Kind: EvCap, AtSec: 1, Link: 1, Bps: 300_000})},
		{"down on a negative link", ev(EventSpec{Kind: EvDown, AtSec: 1, Link: -1})},
		{"flap", ev(EventSpec{Kind: EvFlap, Link: 0, PeriodSec: 2, FromSec: 1, ToSec: 5})},
		{"unknown kind", ev(EventSpec{Kind: "teleport", AtSec: 1})},
		{"churn at rate 0", ev(EventSpec{Kind: EvChurn, Session: 1, FromSec: 1, ToSec: 5})},
		{"churn in an empty window", ev(EventSpec{Kind: EvChurn, Session: 1, Rate: 1, FromSec: 5, ToSec: 5})},
		{"capacity 0", ev(EventSpec{Kind: EvCap, AtSec: 1, Link: 0})},
		{"negative link delay", ev(EventSpec{Kind: EvDelay, AtSec: 1, Link: 0, DelayMs: -3})},
		{"zero link delay", ev(EventSpec{Kind: EvDelay, AtSec: 1, Link: 0})},
		{"flap without a period", ev(EventSpec{Kind: EvFlap, Link: 0, FromSec: 1, ToSec: 5})},
		{"flap in an empty window", ev(EventSpec{Kind: EvFlap, Link: 0, PeriodSec: 2, FromSec: 6, ToSec: 5})},
		{"no_consolidation on a feedback protocol", func(sp *Spec) { sp.Protocol, sp.NoConsolidation = "dsc", true }},
		{"empty cohort", func(sp *Spec) { sp.Sessions[1].Cohorts = []int{0} }},
		{"negative cohort", func(sp *Spec) { sp.Sessions[0].Cohorts = []int{-4} }},
		{"negative delay", func(sp *Spec) { sp.Sessions[0].Receivers[0].DelayMs = -5 }},
		{"negative start", func(sp *Spec) { sp.Sessions[1].Receivers[0].StartSec = -1 }},
		{"negative tcp", func(sp *Spec) { sp.TCP = -2 }},
		{"negative groups", func(sp *Spec) { sp.Groups = -6 }},
		{"300 groups", func(sp *Spec) { sp.Groups = 300 }},
		{"30 groups, past 65535 packets a slot", func(sp *Spec) { sp.Groups = 30 }},
		{"unknown protocol", func(sp *Spec) { sp.Protocol = "flid-xx" }},
		{"unknown strategy", func(sp *Spec) { sp.Sessions[0].Receivers[2].Strategy = "bribery" }},
		{"ring topology", func(sp *Spec) { sp.Topology.Kind = "ring" }},
		{"dumbbell of two capacities", func(sp *Spec) { sp.Topology.CapacitiesBps = []int64{600_000, 300_000} }},
		{"zero capacity", func(sp *Spec) { sp.Topology.CapacitiesBps = []int64{0} }},
		{"chain of no hops", func(sp *Spec) { sp.Topology = deltasigma.TopologySpec{Kind: "chain"} }},
		{"negative hop delay", func(sp *Spec) { sp.Topology.HopDelay = -sim.Millisecond }},
	}
	for _, row := range rows {
		rejected := readEdited(t, row)
		failed := buildAndStart(row)
		if (rejected != nil) != (failed != nil) {
			t.Errorf("%s: ReadRepro error %v, but build and Start error %v", row.name, rejected, failed)
		}
	}
}

// Some rules are the spec's alone: the facade builds and starts a spec
// whose oracle it cannot evaluate (its audit reports the oracle when it
// finishes), a consolidation switch with nothing to consolidate, and a
// duration that runs nothing — so a repro carrying them would replay as
// something else. ReadRepro refuses them, though the spec builds and
// starts.
func TestReadReproRejectsWhatFacadeIgnores(t *testing.T) {
	rows := []specRow{
		{"oracle on a missing session", func(sp *Spec) { sp.Oracle.Session = 3 }},
		{"oracle on a session without attackers", func(sp *Spec) { sp.Oracle.Session = 2 }},
		{"no_consolidation without cohorts", func(sp *Spec) { sp.NoConsolidation = true }},
		{"negative duration", func(sp *Spec) { sp.DurationSec = -1 }},
		{"zero duration", func(sp *Spec) { sp.DurationSec = 0 }},
	}
	for _, row := range rows {
		if err := readEdited(t, row); err == nil {
			t.Errorf("%s: ReadRepro accepted the spec", row.name)
		}
		if err := buildAndStart(row); err != nil {
			t.Errorf("%s: the facade now refuses it too (%v); move the row to TestReadReproRejectsWhatBuildRejects", row.name, err)
		}
	}
}
