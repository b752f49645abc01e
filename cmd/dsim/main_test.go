package main

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"deltasigma"
	"deltasigma/internal/fuzzing"
)

// Flag validation of the single-scenario mode: every rejected combination
// must error before any simulation runs.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"zero sessions", []string{"-sessions", "0"}, "-sessions"},
		{"too many sessions", []string{"-sessions", "65536"}, "-sessions must be at most 65535"},
		{"bad topology", []string{"-topology", "ring"}, "unknown topology"},
		{"bad capacity", []string{"-capacity", "abc"}, "bad capacity"},
		{"negative capacity", []string{"-capacity", "-5"}, "bad capacity"},
		{"dumbbell capacity count", []string{"-capacity", "100000,200000"}, "exactly one"},
		{"named dumbbell of two capacities", []string{"-topology", "dumbbell", "-capacity", "1,2"}, "a dumbbell takes exactly one capacity, got 2"},
		{"bad protocol", []string{"-protocol", "nope"}, "unknown protocol"},
		{"groups past 65535 packets a slot", []string{"-groups", "30"}, "65535"},
		{"attack past end", []string{"-attack", "70", "-dur", "60"}, "inside -dur"},
		{"attackstop without attack", []string{"-attackstop", "30"}, "needs -attack"},
		{"attackstop before attack", []string{"-attack", "40", "-attackstop", "30", "-dur", "60"}, "must come after"},
		{"attackstop past end", []string{"-attack", "10", "-attackstop", "80", "-dur", "60"}, "inside -dur"},
		{"flap past end", []string{"-flap", "90", "-dur", "60"}, "inside -dur"},
		{"flap with no down time", []string{"-sessions", "1", "-flap", "0.000000005", "-dur", "2"}, "LinkFlap: flap period 0.000s leaves no down time"},
		{"negative cohort", []string{"-cohort", "-3"}, "-cohort"},
		{"cohort on replicated", []string{"-cohort", "10", "-protocol", "flid-ds-replicated"}, "replicated"},
		{"cohort on mfcc", []string{"-cohort", "10", "-protocol", "mfcc"}, "not supported"},
		{"attack on abr-cf", []string{"-attack", "5", "-protocol", "abr-cf"}, "no inflated-subscription attacker"},
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error = %v, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// Negative counts, times, rates and shares — and a zero -dur — are rejected
// with an error naming the flag, never read as "unset" or as the default.
func TestNegativeFlagsRejected(t *testing.T) {
	cases := []struct {
		cmd  func([]string, io.Writer) error
		args []string
		want string
	}{
		{run, []string{"-dur", "-1"}, "-dur"},
		{run, []string{"-dur", "0"}, "-dur"},
		{run, []string{"-attack", "-3"}, "-attack"},
		{run, []string{"-attack", "5", "-attackstop", "-1"}, "-attackstop"},
		{run, []string{"-churn", "-1"}, "-churn"},
		{run, []string{"-flap", "-2"}, "-flap"},
		{run, []string{"-tcp", "-1"}, "-tcp"},
		{run, []string{"-cbr", "-1"}, "-cbr"},
		{run, []string{"-groups", "-3"}, "-groups"},
		{runSweep, []string{"-dur", "-5"}, "-dur"},
		{runSweep, []string{"-dur", "0"}, "-dur"},
		{runSweep, []string{"-warmup", "-1"}, "-warmup"},
		{runSweep, []string{"-attack", "-1"}, "-attack"},
		{runSweep, []string{"-workers", "-2", "-dur", "1"}, "-workers"},
		{runFuzz, []string{"-n", "1", "-shrink", "-1"}, "-shrink"},
		{runHunt, []string{"-gens", "1", "-pop", "2", "-shrink-top", "-1"}, "-shrink-top"},
		{runHunt, []string{"-gens", "1", "-pop", "2", "-keep", "0"}, "-keep"},
		{runHunt, []string{"-gens", "1", "-pop", "2", "-shrink", "0"}, "-shrink"},
		{runHunt, []string{"-gens", "1", "-pop", "2", "-shrink", "-3"}, "-shrink"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var buf bytes.Buffer
			err := tc.cmd(tc.args, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want+" must be") {
				t.Fatalf("%v: error = %v, want one naming %s", tc.args, err, tc.want)
			}
		})
	}
}

// -list prints the registry and runs nothing.
func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range deltasigma.Protocols() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, buf.String())
		}
	}
}

// The default mode's -json output is the typed Result, parseable and
// shaped by the flags.
func TestRunJSONShape(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-sessions", "2", "-dur", "2", "-json", "-protocol", "flid-dl"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var res deltasigma.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, buf.String())
	}
	if res.Protocol != "flid-dl" {
		t.Errorf("protocol = %q, want flid-dl", res.Protocol)
	}
	if len(res.Receivers) != 2 {
		t.Errorf("receivers = %d, want 2 (one per session)", len(res.Receivers))
	}
	if res.Seconds != 2 {
		t.Errorf("seconds = %g, want 2", res.Seconds)
	}
}

// The progress table renders a row per 5-second step, a shorter last step
// when -dur is not a multiple of 5 s, and the summary line.
func TestRunTableOutput(t *testing.T) {
	cases := []struct {
		dur  string
		rows []string // each row's time column, in order
	}{
		{"2", []string{"t=   2s"}},
		{"7", []string{"t=   5s", "t=   7s"}},
		{"10", []string{"t=   5s", "t=  10s"}},
	}
	for _, tc := range cases {
		t.Run(tc.dur+"s", func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-sessions", "1", "-dur", tc.dur}, &buf); err != nil {
				t.Fatal(err)
			}
			s := buf.String()
			var rows []string
			for _, line := range strings.Split(s, "\n") {
				if strings.HasPrefix(line, "t=") {
					rows = append(rows, line[:len("t=   5s")])
				}
			}
			if !slices.Equal(rows, tc.rows) {
				t.Errorf("row times = %q, want %q:\n%s", rows, tc.rows, s)
			}
			if !strings.Contains(s, "bottleneck utilization") {
				t.Errorf("missing summary row:\n%s", s)
			}
		})
	}
}

// Sweep flag validation.
func TestSweepFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad topology token", []string{"-topologies", "ring"}, `sweep topology "ring" is not dumbbell, chain<N> or star<N>`},
		{"bad chain count", []string{"-topologies", "chainx"}, `sweep topology "chainx" is not`},
		{"bad receivers", []string{"-receivers", "two"}, "-receivers"},
		{"bad cohorts", []string{"-cohorts", "many"}, "-cohorts"},
		{"negative cohorts", []string{"-cohorts", "-5", "-dur", "1"}, "negative"},
		{"bad seeds", []string{"-seeds", "x"}, `-seeds: bad seed "x"`},
		{"unknown protocol axis", []string{"-protocols", "bogus"}, "registered:"},
		{"unknown strategy axis", []string{"-strategies", "bogus", "-dur", "1"}, "strategy"},
		{"unknown campaign", []string{"-campaign", "nope"}, "unknown campaign"},
		{"campaign axis conflict", []string{"-campaign", "churn", "-receivers", "4"}, "no effect with -campaign"},
		{"campaign cohorts conflict", []string{"-campaign", "million", "-cohorts", "10"}, "no effect with -campaign"},
		{"campaign strategies conflict", []string{"-campaign", "shootout", "-strategies", "classic"}, "no effect with -campaign"},
		{"campaign dur conflict", []string{"-campaign", "churn", "-dur", "4"}, "-dur has no effect with -campaign"},
		{"bad campaign seeds", []string{"-campaign", "churn", "-seeds", "x"}, `-seeds: bad seed "x"`},
		{"zero capacity", []string{"-capacity", "0", "-dur", "1"}, `-capacity: bad capacity "0"`},
		{"scale without campaign", []string{"-scale", "0.01", "-protocols", "flid-dl", "-dur", "1", "-csv"}, "-scale has no effect without -campaign"},
		{"zero scale", []string{"-campaign", "population", "-scale", "0", "-json"}, "-scale must be positive"},
		{"negative scale", []string{"-campaign", "churn", "-scale", "-0.5"}, "-scale must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := runSweep(tc.args, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runSweep(%v) error = %v, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// The canned shoot-out campaign runs end to end through the CLI at a tiny
// scale: every registered protocol appears in the table, the attackerless
// baseline rows fail with the typed no-attacker reason, and everything
// else posts numbers — the same invocation CI's smoke job makes.
func TestSweepShootoutCampaignTable(t *testing.T) {
	var buf bytes.Buffer
	if err := runSweep([]string{"-campaign", "shootout", "-scale", "0.05", "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if s == "" {
		t.Fatal("shootout campaign produced no table")
	}
	for _, name := range deltasigma.Protocols() {
		if !strings.Contains(s, name) {
			t.Errorf("shootout table missing protocol %q:\n%s", name, s)
		}
	}
	if !strings.Contains(s, "no inflated-subscription attacker") {
		t.Errorf("shootout table missing the attackerless baseline rows:\n%s", s)
	}
}

// -cohort threads through both output modes: the JSON Result carries a
// cohorts section with the aggregated population, and the progress table
// prints a per-member line alongside the exact receivers.
func TestRunCohortOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-sessions", "1", "-cohort", "50000", "-dur", "2", "-json", "-protocol", "flid-dl"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var res deltasigma.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, buf.String())
	}
	if len(res.Cohorts) != 1 || res.Cohorts[0].Members != 50000 {
		t.Fatalf("cohorts = %+v, want one with 50000 members", res.Cohorts)
	}
	if res.Cohorts[0].AvgKbps <= 0 || res.Cohorts[0].PerMemberKbps <= 0 {
		t.Errorf("cohort delivered nothing: %+v", res.Cohorts[0])
	}

	buf.Reset()
	if err := run([]string{"-sessions", "1", "-cohort", "100", "-dur", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S1C1") || !strings.Contains(buf.String(), "online") {
		t.Errorf("progress table missing the cohort line:\n%s", buf.String())
	}
}

// Sweep -json emits a CampaignResult whose points enumerate the declared
// grid in order.
func TestSweepJSONShape(t *testing.T) {
	var buf bytes.Buffer
	err := runSweep([]string{
		"-protocols", "flid-dl", "-receivers", "1,2", "-attackers", "0,1",
		"-dur", "2", "-workers", "2", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var res deltasigma.CampaignResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, buf.String())
	}
	if res.Name != "adhoc" {
		t.Errorf("name = %q, want adhoc", res.Name)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2 receivers × 2 attackers)", len(res.Points))
	}
	// Grid order: receivers vary slower than attackers.
	wantOrder := [][2]int{{1, 0}, {1, 1}, {2, 0}, {2, 1}}
	for i, p := range res.Points {
		if p.Point.Receivers != wantOrder[i][0] || p.Point.Attackers != wantOrder[i][1] {
			t.Errorf("point %d = r%d a%d, want r%d a%d",
				i, p.Point.Receivers, p.Point.Attackers, wantOrder[i][0], wantOrder[i][1])
		}
	}
	if res.Failures != 0 {
		t.Errorf("%d points failed", res.Failures)
	}
}

// Sweep -csv emits one header plus one row per grid point, with the header
// column set the docs promise.
func TestSweepCSVShape(t *testing.T) {
	var buf bytes.Buffer
	err := runSweep([]string{
		"-protocols", "flid-dl,flid-ds", "-dur", "2", "-csv",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2 points", len(rows))
	}
	header := rows[0]
	for i, want := range []string{"protocol", "topology", "receivers", "attackers", "strategy", "cohort", "bottleneck_bps"} {
		if header[i] != want {
			t.Errorf("header[%d] = %q, want %q", i, header[i], want)
		}
	}
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Errorf("ragged row: %d cells vs %d header columns", len(row), len(header))
		}
	}
	if rows[1][0] != "flid-dl" || rows[2][0] != "flid-ds" {
		t.Errorf("protocol axis out of order: %q, %q", rows[1][0], rows[2][0])
	}
}

// The fuzz subcommand: a small clean corpus exits zero with a parseable
// JSON summary, and a failing repro replays with a nonzero outcome.
func TestFuzzSmokeAndSummary(t *testing.T) {
	var buf bytes.Buffer
	err := runFuzz([]string{"-n", "4", "-seed", "1", "-workers", "2", "-json", "-out", t.TempDir()}, &buf)
	if err != nil {
		t.Fatalf("clean corpus failed: %v\n%s", err, buf.String())
	}
	var sums []fuzzing.Summary
	if err := json.Unmarshal(buf.Bytes(), &sums); err != nil {
		t.Fatalf("non-JSON summary: %v\n%s", err, buf.String())
	}
	if len(sums) != 4 || sums[0].Seed != 1 || !sums[3].Pass {
		t.Fatalf("bad summary: %+v", sums)
	}
}

func TestFuzzFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runFuzz([]string{"-n", "0"}, &buf); err == nil || !strings.Contains(err.Error(), "-n") {
		t.Fatalf("zero -n accepted: %v", err)
	}
	if err := runFuzz([]string{"-repro", "/no/such/file.json"}, &buf); err == nil {
		t.Fatal("missing repro file accepted")
	}
}

// A repro file for a genuinely failing spec replays as a failure (nonzero
// error) with its violations printed.
func TestFuzzReproReplay(t *testing.T) {
	spec := failingReproSpec()
	path := filepath.Join(t.TempDir(), "repro.json")
	js, _ := json.Marshal(spec)
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := runFuzz([]string{"-repro", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "repro still fails") {
		t.Fatalf("failing repro did not fail: %v", err)
	}
	if !strings.Contains(buf.String(), "suppression-oracle") {
		t.Errorf("violations not printed:\n%s", buf.String())
	}
}

// failingReproSpec is an attack on the unprotected baseline under the
// suppression oracle: a repro that genuinely fails.
func failingReproSpec() fuzzing.Spec {
	return fuzzing.Spec{
		Seed:        5,
		Protocol:    "flid-dl",
		Topology:    deltasigma.TopologySpec{Kind: "dumbbell", CapacitiesBps: []int64{600_000}},
		DurationSec: 10,
		Sessions: []fuzzing.SessionSpec{
			{Receivers: []fuzzing.ReceiverSpec{{}, {Attacker: true}}},
		},
		Events: []fuzzing.EventSpec{{Kind: fuzzing.EvOnset, AtSec: 2, Session: 1, Receiver: 2}},
		Oracle: &fuzzing.OracleSpec{Session: 1, FromSec: 6, Factor: 1.25, FloorKbps: 30},
	}
}

// A malformed repro file is refused with the typed error before anything
// runs, and dsim exits non-zero: not a panic or a build error replayed as
// "still fails", not a silently ignored oracle replayed as "passes", not a
// negative duration replayed as invariant violations.
func TestFuzzMalformedRepro(t *testing.T) {
	cases := []struct {
		name string
		edit func(*fuzzing.Spec)
	}{
		{"onset on receiver 9 of 1", func(sp *fuzzing.Spec) {
			sp.Sessions[0].Receivers = sp.Sessions[0].Receivers[1:]
			sp.Events[0].Receiver = 9
		}},
		{"oracle on session 3 of 1", func(sp *fuzzing.Spec) { sp.Oracle.Session = 3 }},
		{"negative duration", func(sp *fuzzing.Spec) { sp.DurationSec = -10 }},
		{"empty cohort", func(sp *fuzzing.Spec) { sp.Sessions[0].Cohorts = []int{0} }},
		{"unknown protocol", func(sp *fuzzing.Spec) { sp.Protocol = "flid-xx" }},
		{"unknown strategy", func(sp *fuzzing.Spec) { sp.Sessions[0].Receivers[1].Strategy = "bribery" }},
		{"ring topology", func(sp *fuzzing.Spec) { sp.Topology.Kind = "ring" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := failingReproSpec()
			tc.edit(&spec)
			path := filepath.Join(t.TempDir(), "repro.json")
			js, _ := json.Marshal(spec)
			if err := os.WriteFile(path, js, 0o644); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := runFuzz([]string{"-repro", path}, &buf)
			var mre *fuzzing.MalformedReproError
			if !errors.As(err, &mre) {
				t.Fatalf("runFuzz = %v, want *fuzzing.MalformedReproError\n%s", err, buf.String())
			}
			if buf.Len() > 0 {
				t.Errorf("malformed repro produced replay output:\n%s", buf.String())
			}
			cmd := exec.Command(os.Args[0], "fuzz", "-repro", path)
			cmd.Env = append(os.Environ(), "DSIM_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(string(out), "malformed repro") {
				t.Fatalf("dsim fuzz -repro: %v, want a non-zero exit naming the malformed repro\n%s", err, out)
			}
		})
	}
}

// TestMain runs the real dsim entry point when DSIM_RUN_MAIN is set, so a
// test can check the exit status of a command in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("DSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// -shrink-top 0 shrinks nothing; HuntConfig would read a literal 0 as its
// default of two.
func TestHuntShrinkTopZero(t *testing.T) {
	var buf bytes.Buffer
	if err := runHunt([]string{"-gens", "1", "-pop", "2", "-workers", "1", "-shrink-top", "0", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var report fuzzing.HuntReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("non-JSON report: %v\n%s", err, buf.String())
	}
	if len(report.Scenarios) == 0 {
		t.Fatal("report has no scenarios")
	}
	if strings.Contains(buf.String(), `"shrunk"`) {
		t.Errorf("-shrink-top 0 shrank a scenario:\n%s", buf.String())
	}
}

// profiledCommands is every subcommand at a size that takes a moment, each
// with the arguments that make it so.
var profiledCommands = []struct {
	name string
	run  func([]string, io.Writer) error
	args []string
}{
	{"run", run, []string{"-sessions", "1", "-dur", "2", "-json"}},
	{"sweep", runSweep, []string{"-protocols", "flid-dl", "-receivers", "1", "-dur", "2", "-workers", "1", "-json"}},
	{"fuzz", runFuzz, []string{"-n", "1", "-workers", "1", "-json"}},
	{"hunt", runHunt, []string{"-gens", "1", "-pop", "2", "-workers", "1", "-shrink-top", "0", "-json"}},
}

// checkProfile asserts path holds what runtime/pprof writes: a gzip stream
// that inflates to a non-empty protobuf.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a pprof file: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("%s inflates to %d bytes, error %v", path, len(body), err)
	}
}

func TestCPUProfileFlag(t *testing.T) {
	for _, c := range profiledCommands {
		path := filepath.Join(t.TempDir(), c.name+".cpu.pprof")
		if err := c.run(append([]string{"-cpuprofile", path}, c.args...), io.Discard); err != nil {
			t.Fatalf("dsim %s -cpuprofile: %v", c.name, err)
		}
		checkProfile(t, path)
	}
}

func TestMemProfileFlag(t *testing.T) {
	for _, c := range profiledCommands {
		path := filepath.Join(t.TempDir(), c.name+".mem.pprof")
		if err := c.run(append([]string{"-memprofile", path}, c.args...), io.Discard); err != nil {
			t.Fatalf("dsim %s -memprofile: %v", c.name, err)
		}
		checkProfile(t, path)
	}
}

// A profile path that cannot be created is a typed error before anything
// runs — main prints it and exits 1 — for either flag, on every subcommand.
func TestUnwritableProfilePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "p.pprof")
	for _, c := range profiledCommands {
		for _, flag := range []string{"-cpuprofile", "-memprofile"} {
			var out bytes.Buffer
			err := c.run(append([]string{flag, bad}, c.args...), &out)
			var perr *profileError
			if !errors.As(err, &perr) || perr.path != bad || "-"+perr.flag != flag {
				t.Fatalf("dsim %s %s %s: error %v, want a profileError naming the flag and path", c.name, flag, bad, err)
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("dsim %s %s: %v does not wrap the cause", c.name, flag, err)
			}
			if out.Len() != 0 {
				t.Errorf("dsim %s %s ran before rejecting the path:\n%s", c.name, flag, out.String())
			}
		}
	}
}
