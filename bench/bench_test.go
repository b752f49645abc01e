package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCode holds BENCHMARK.json and the metric tables in this
// package in step, and both inside the contract's limits.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) || len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d (allowed 2..8)", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	if len(c.EndToEnd) != len(endToEndMetrics) || len(c.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d (allowed 1..16)", len(c.EndToEnd), len(endToEndMetrics))
	}
	seen := map[string]bool{}
	for i, d := range endToEndMetrics {
		got := c.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the code %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		for _, w := range workloads {
			if b := boundFor(w.name, d); b > d.Bound {
				t.Errorf("%s on %s: bound %g is looser than the contract's %g", d.Name, w.name, b, d.Bound)
			}
		}
		checkName(t, seen, d)
	}
	if endToEndMetrics[0].Name != "setup_s" || endToEndMetrics[0].Unit != "s" || endToEndMetrics[0].Better != "lower" {
		t.Error("the contract requires setup_s in s, lower is better")
	}
	for _, d := range endToEndMetrics[1:] {
		if d.Bound > endToEndMetrics[0].Bound {
			t.Errorf("%s has a looser bound than setup_s, which must have the largest", d.Name)
		}
	}

	layer := perLayerMetrics()
	if len(c.PerLayer) != len(layer) || len(layer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d (allowed 1..128)", len(c.PerLayer), len(layer))
	}
	for i, d := range layer {
		got := c.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the code %+v", i, got, d)
		}
		checkName(t, seen, d)
	}
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("name %s is used twice", w.name)
		}
		seen[w.name] = true
	}
}

func checkName(t *testing.T, seen map[string]bool, d metricDef) {
	t.Helper()
	if !nameRE.MatchString(d.Name) {
		t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
	}
	if !unitRE.MatchString(d.Unit) {
		t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
	}
	if d.Better != "lower" && d.Better != "higher" {
		t.Errorf("%s: better is %q", d.Name, d.Better)
	}
	if seen[d.Name] {
		t.Errorf("name %s is used twice", d.Name)
	}
	seen[d.Name] = true
}

// contractLine is the last line of a run's output.
type contractLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runQuick runs the command at -quick size and parses its last line.
func runQuick(t *testing.T, args ...string) (string, contractLine) {
	t.Helper()
	var out bytes.Buffer
	if code := run(append(args, "-quick"), &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the contract's object: %v\n%s", err, lines[len(lines)-1])
	}
	return out.String(), line
}

// emittedOnce asserts the table prints every named metric exactly once and
// the contract line carries exactly the named metrics, each with its unit.
func emittedOnce(t *testing.T, output string, line contractLine, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("run not correct: %+v\n%s", line, output)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("the contract line has %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: missing from the contract line", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		rows := 0
		for _, row := range strings.Split(output, "\n") {
			if f := strings.Fields(row); len(f) > 1 && f[0] == d.Name {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("%s: printed %d times, want once", d.Name, rows)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	traceDir = t.TempDir()
	for _, w := range workloads {
		out, line := runQuick(t, "-workload", w.name, "-seed", "7")
		emittedOnce(t, out, line, endToEndMetrics)
		for _, m := range line.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: an end-to-end metric read %g; the contract wants metrics that are never 0", w.name, m.Value)
			}
		}
		if !strings.Contains(out, "output_digest") || !strings.Contains(out, "failed_share") {
			t.Errorf("%s: failed_share or output_digest not printed", w.name)
		}
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	traceDir = t.TempDir()
	for _, name := range []string{"population", "search"} {
		out, line := runQuick(t, "-workload", name, "-trace", "1")
		emittedOnce(t, out, line, perLayerMetrics())
		var shares float64
		for k, m := range line.Metrics {
			if strings.HasSuffix(k, ".cpu_share") {
				shares += m.Value
			}
		}
		if shares < 0.99 || shares > 1.01 {
			t.Errorf("%s: cpu shares sum to %g, want 1", name, shares)
		}
		if _, err := os.Stat(filepath.Join(traceDir, name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}

// TestAllocationFreeDrivers pins the three hot paths the repo promises
// allocate nothing in steady state: each must read 0.00 allocs/op.
func TestAllocationFreeDrivers(t *testing.T) {
	for name, allocs := range map[string]func() float64{
		"sim schedule/fire":        func() float64 { _, a := simScheduleFire(64, 100_000); return a },
		"netsim link steady state": func() float64 { _, a := netsimLinkPacket(100_000); return a },
		"packet get/release":       func() float64 { _, a := packetGetRelease(100_000); return a },
	} {
		// Not exactly zero: a calendar bucket may still grow once after the
		// warm-up, and the runtime allocates a little on its own account.
		// One allocation per two hundred operations would be a regression.
		if a := allocs(); a >= 0.005 {
			t.Errorf("%s: %.4f allocs/op, want 0.00", name, a)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	env := envStamp{Go: "go1.24", CPU: "x", NumCPU: 2, GOMAXPROCS: 2, GOGC: 100, Reps: "fixed"}
	file := func(env envStamp, wall ...float64) resultFile {
		res := &workloadResult{Workload: "figures", Digest: "d", Correct: true, Attempted: 12}
		res.add("wall_s", "s", wall)
		return resultFile{Env: env, Workloads: []*workloadResult{res}}
	}
	base := file(env, 1.00, 1.01, 0.99, 1.00, 1.00, 1.01, 0.99)
	for _, tc := range []struct {
		name string
		b    resultFile
		code int
		want string
	}{
		{"same", file(env, 1.02, 1.03, 1.01, 1.02, 1.02, 1.03, 1.01), 0, "same"},
		{"worse", file(env, 1.10, 1.11, 1.09, 1.10, 1.10, 1.11, 1.09), 1, "worse"},
		{"noisy", file(env, 0.8, 1.3, 0.9, 1.2, 1.0, 1.4, 0.7), 1, "unresolved"},
		{"noisy but faster", file(env, 0.5, 0.7, 0.4, 0.8, 0.6, 0.5, 0.9), 0, "same"},
		{"other toolchain", file(envStamp{Go: "go1.22", CPU: "x", NumCPU: 2, GOMAXPROCS: 2, GOGC: 100, Reps: "fixed"}, 1), 2, "refusing"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, base, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; Python gives 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g; Python gives 1.0, 3.0", q1, q3)
	}
}

func TestLayerOfPackage(t *testing.T) {
	for symbol, want := range map[string]string{
		"deltasigma/internal/sim.(*calQueue).pop":                        "sim",
		"deltasigma.(*Experiment).Advance":                               "facade",
		"deltasigma/internal/topo.New":                                   "facade",
		"deltasigma/internal/keys.XOR":                                   "delta",
		"deltasigma/internal/cbr.(*Source).emit":                         "tcp",
		"deltasigma/internal/mfcc.(*Receiver).onShare":                   "rivals",
		"runtime.mallocgc":                                               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                        "runtime",
		"encoding/json.Marshal":                                          "other",
		"main.runFacade":                                                 "other",
		"slices.SortFunc[go.shape.[]deltasigma/internal/sim.T,go.shape]": "other",
		"deltasigma/internal/flid.(*batch).evaluate.func1":               "flid",
	} {
		if got := layerOf(packageOf(symbol)); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", symbol, got, want)
		}
	}
}

// TestFoldProfileReadsRuntimeProfile decodes a profile the runtime itself
// wrote: busy work in this package must land in "other", and the fold's
// total must be CPU time of the right order.
func TestFoldProfileReadsRuntimeProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	runtime.KeepAlive(x)
	pprof.StopCPUProfile()
	cpu := map[string]float64{}
	if err := foldProfile(prof.Bytes(), cpu); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if total < 100e6 || cpu["other"] < total/2 {
		t.Errorf("folded %v: want at least 0.1 s of CPU, most of it in other", cpu)
	}
	if err := foldProfile([]byte("not a profile"), cpu); err == nil {
		t.Error("a malformed profile was accepted")
	}
}
