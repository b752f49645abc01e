package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported number. End-to-end metrics keep their per-
// repetition samples so two result files can be compared by quartiles;
// per-layer metrics are single readings.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"` // the median when there are samples
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Samples holds one value per repetition (per set-up round for
	// setup_s), in run order.
	Samples []float64 `json:"samples,omitempty"`
	// Text replaces Value for readings that are deliberately not numbers
	// (sharding.scaling on a host too small to measure it).
	Text string `json:"text,omitempty"`
}

// workloadResult is everything one workload's run reported.
type workloadResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	Traced   bool   `json:"traced"`
	// Reps is the number of timed (untraced) repetitions.
	Reps int `json:"reps"`
	// Digest is output_digest: sha256 of one repetition's deterministic
	// output. Two commits with equal digests computed the same simulated
	// statistics.
	Digest    string   `json:"output_digest"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// fail records a failed check covering ops operations.
func (res *workloadResult) fail(ops int, format string, args ...any) {
	res.Failed += ops
	if len(res.Failures) < 20 {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
}

// add records a metric from its samples: the median, with quartiles.
func (res *workloadResult) add(name, unit string, samples []float64) {
	q1, q3 := quartiles(samples)
	res.Metrics = append(res.Metrics, metric{Name: name, Unit: unit, Value: median(samples), Q1: q1, Q3: q3, Samples: samples})
}

// addValue records a single reading.
func (res *workloadResult) addValue(name, unit string, v float64) {
	res.Metrics = append(res.Metrics, metric{Name: name, Unit: unit, Value: v})
}

func (res *workloadResult) metric(name string) *metric {
	for i := range res.Metrics {
		if res.Metrics[i].Name == name {
			return &res.Metrics[i]
		}
	}
	return nil
}

// failedShare is failed operations over operations attempted.
func (res *workloadResult) failedShare() float64 {
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// print writes the human-readable table and, as the last line, the one-line
// JSON object the benchmark contract reads: correct, attempted, failed, and
// the metrics BENCHMARK.json names for this kind of run.
func (res *workloadResult) print(w io.Writer) {
	out := bufio.NewWriter(w)
	defer out.Flush()
	switch {
	case res.Digest == "":
		fmt.Fprintln(out, "isolated layer drivers")
	case res.Traced:
		fmt.Fprintf(out, "workload %s  seed %d  workers %d  traced  repetition pairs %d\n", res.Workload, res.Seed, res.Workers, res.Reps)
	default:
		fmt.Fprintf(out, "workload %s  seed %d  workers %d  untraced  repetitions %d\n", res.Workload, res.Seed, res.Workers, res.Reps)
	}
	for _, m := range res.Metrics {
		switch {
		case m.Text != "":
			fmt.Fprintf(out, "  %-34s %14s %s\n", m.Name, m.Text, m.Unit)
		case len(m.Samples) > 0:
			fmt.Fprintf(out, "  %-34s %14.6g %-8s n=%d q1=%.6g q3=%.6g\n", m.Name, m.Value, m.Unit, len(m.Samples), m.Q1, m.Q3)
		default:
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if res.Digest != "" {
		fmt.Fprintf(out, "  %-34s %14.6g ratio    (%d of %d operations)\n", "failed_share", res.failedShare(), res.Failed, res.Attempted)
		fmt.Fprintf(out, "  %-34s %s\n", "output_digest", res.Digest)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(out, "  trace written to %s\n", res.TraceFile)
	}

	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]reading{}}
	defs := endToEndMetrics
	if res.Traced || res.Digest == "" {
		defs = perLayerMetrics()
	}
	for _, d := range defs {
		if m := res.metric(d.Name); m != nil && m.Text == "" {
			line.Metrics[d.Name] = reading{m.Value, m.Unit}
		}
	}
	js, err := json.Marshal(line)
	if err != nil {
		// A NaN or infinite reading: report the run as unusable rather
		// than printing a line the reader cannot parse.
		fmt.Fprintf(out, "  FAILED: result not encodable: %v\n", err)
		js = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Fprintf(out, "%s\n", js)
}

// ---------------------------------------------------------------------------
// result files and the environment stamp

// envStamp records everything host time depends on besides the code. Two
// result files are comparable only when their stamps are equal.
type envStamp struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	// Reps says how the timed section was sized: the fixed repetition
	// counts, or the time box.
	Reps string `json:"reps"`
	// Commit identifies the code; it is recorded, not compared.
	Commit string `json:"commit"`
}

// comparable reports the stamp without the commit.
func (e envStamp) comparable() envStamp {
	e.Commit = ""
	return e
}

func stampEnv(cfg runConfig) envStamp {
	reps := make([]string, len(workloads))
	for i, w := range workloads {
		reps[i] = fmt.Sprintf("%s=%d", w.name, w.reps)
	}
	sizing := "fixed " + strings.Join(reps, " ")
	switch {
	case cfg.quick:
		sizing = "quick"
	case cfg.seconds > 0:
		sizing = fmt.Sprintf("time-boxed %ds", cfg.seconds)
	}
	return envStamp{
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       pinnedGOGC,
		Reps:       sizing,
		Commit:     commit(),
	}
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, model, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(model)
			}
		}
	}
	return runtime.GOARCH
}

// commit names the code being measured: the revision stamped into the
// binary when there is one, else what git says about the working directory,
// else "unknown" (a checkout that is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	// Ask git only about a repository rooted here, so a bare checkout
	// never sends it searching the directories above.
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env       envStamp          `json:"env"`
	Seed      uint64            `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

func (f resultFile) write(path string) error {
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	js, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(js, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// order statistics

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics; q in [0,1].
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the benchmark contract's spread is defined on.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := sorted(v)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
