package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// runConfig is what the command line selected.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	quick   bool
}

const (
	// setupRounds is how many times a run sets up (generates the inputs
	// and runs one untimed warm-up repetition); setup_s is their median.
	// The first round starts at process start.
	setupRounds = 3
	// minReps is the fewest timed repetitions a time-boxed run makes,
	// however slow the host.
	minReps = 7
	// minTracedPairs is the fewest untraced/traced repetition pairs a
	// time-boxed traced run makes.
	minTracedPairs = 3
)

// sample is one timed repetition.
type sample struct {
	wall      float64 // host seconds
	mallocs   float64
	allocMB   float64
	gcCycles  float64
	simSecond float64
}

// runWorkload sets the workload up, runs its timed section as a closed
// loop, checks every repetition's output and returns the metrics: the
// end-to-end ones untraced, the per-layer ones traced.
func runWorkload(w *workload, cfg runConfig) *workloadResult {
	res := &workloadResult{Workload: w.name, Seed: cfg.seed, Workers: w.workers, Traced: cfg.traced}

	// Set-up. Each round regenerates the inputs and warms up on them; the
	// last round's repetition function and digest carry into the timed
	// section.
	var (
		rep     func(*tracer) *repetition
		digest  string
		setups  []float64
		started = processStart
	)
	for i := 0; i < setupRounds; i++ {
		if i > 0 || !firstSetup {
			started = time.Now()
		}
		rep = w.prepare(cfg.seed, cfg.quick)
		warm := rep(nil)
		setups = append(setups, time.Since(started).Seconds())
		d := digestOf(warm.output)
		if i > 0 && d != digest {
			res.fail(warm.ops, "set-up round %d produced digest %s, round 1 produced %s", i+1, d, digest)
		}
		digest = d
		if cfg.quick || cfg.traced {
			break // setup_s is not among what these runs report
		}
	}
	firstSetup = false
	res.Digest = digest

	var (
		tr       *tracer
		cpu      = map[string]float64{}
		counts   map[string]float64
		untraced []sample
		traced   []sample
	)
	if cfg.traced {
		tr = newTracer()
	}

	timed := func(t *tracer) sample {
		var m0, m1 runtime.MemStats
		var prof bytes.Buffer
		if t != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				res.fail(0, "cpu profile: %v", err)
			}
			t.beginRep()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r := rep(t)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if t != nil {
			t.endRep()
			pprof.StopCPUProfile()
			if err := foldProfile(prof.Bytes(), cpu); err != nil {
				res.fail(0, "%v", err)
			}
			counts = r.counts
		}

		res.Attempted += r.ops
		fails := r.failures
		if r.audit != nil {
			fails = append(fails, r.audit()...)
		}
		if d := digestOf(r.output); d != digest {
			fails = append(fails, failure{what: fmt.Sprintf("output digest %s differs from the first repetition's %s", d, digest), ops: r.ops})
		}
		for _, f := range fails {
			res.fail(f.ops, "%s", f.what)
		}
		return sample{
			wall:      wall,
			mallocs:   float64(m1.Mallocs - m0.Mallocs),
			allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
			gcCycles:  float64(m1.NumGC - m0.NumGC),
			simSecond: r.simSeconds,
		}
	}

	// The timed section: a fixed repetition count, or as many repetitions
	// as fit the time box. A traced run alternates untraced and traced
	// repetitions, so the overhead ratio compares like with like; n counts
	// repetitions, or pairs of them.
	need, floor := w.reps, minReps
	if cfg.traced {
		need, floor = (w.reps+1)/2, minTracedPairs
	}
	begin := time.Now()
	done := func(n int) bool {
		switch {
		case cfg.quick:
			return n >= 2
		case cfg.seconds > 0:
			// Stop once the next repetition would overrun the box.
			elapsed := time.Since(begin).Seconds()
			return n >= floor && elapsed+elapsed/float64(n) > float64(cfg.seconds)
		}
		return n >= need
	}
	for n := 0; !done(n); n++ {
		untraced = append(untraced, timed(nil))
		if cfg.traced {
			traced = append(traced, timed(tr))
		}
	}
	res.Reps = len(untraced)
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && len(res.Failures) == 0

	if !cfg.traced {
		res.endToEnd(setups, untraced)
		return res
	}
	res.perLayer(tr, cpu, counts, untraced, traced)
	path, err := traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.spans, Counts: counts, CPUSeconds: scale(cpu, 1e-9)}.write()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace not written: %v\n", err)
	} else {
		res.TraceFile = path
	}
	return res
}

// firstSetup is true until a workload has been set up: only the process's
// first set-up starts at process start.
var firstSetup = true

func digestOf(output []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(output))
}

func scale(m map[string]float64, by float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v * by
	}
	return out
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// endToEnd records the end-to-end metrics of an untraced run.
func (res *workloadResult) endToEnd(setups []float64, samples []sample) {
	res.add("setup_s", "s", setups)
	res.add("wall_s", "s", column(samples, func(s sample) float64 { return s.wall }))
	res.add("sim_s_per_s", "sim-s/s", column(samples, func(s sample) float64 { return s.simSecond / s.wall }))
	res.add("allocs_per_op", "count", column(samples, func(s sample) float64 { return s.mallocs }))
	res.add("alloc_mb_per_op", "MB", column(samples, func(s sample) float64 { return s.allocMB }))
}

// perLayer records what a traced run measured from outside the layers: the
// tracing overhead, the CPU profile folded by layer, span statistics and the
// counters the layers export.
func (res *workloadResult) perLayer(tr *tracer, cpu, counts map[string]float64, untraced, traced []sample) {
	wall := func(s sample) float64 { return s.wall }
	plain, withTrace := median(column(untraced, wall)), median(column(traced, wall))
	res.addValue("trace.overhead_ratio", "ratio", withTrace/plain)

	var total float64
	for _, v := range cpu {
		total += v
	}
	for _, layer := range profiledLayers {
		share := 0.0
		if total > 0 {
			share = cpu[layer] / total
		}
		res.addValue(layer+".cpu_share", "ratio", share)
	}
	res.addValue("runtime.peak_rss_mb", "MB", peakRSSMB())
	res.addValue("runtime.gc_cycles", "count", median(column(traced, func(s sample) float64 { return s.gcCycles })))

	// Span statistics. Which spans exist depends on the workload: absent
	// ones add nothing.
	for _, f := range figures {
		res.addSpan(tr.perRep("scenario."+f.name), "scenario."+f.name+"_s", "s", 1, 0.5)
	}
	res.addSpan(tr.perRep("facade.build"), "facade.build_s", "s", 1, 0.5)
	res.addSpan(tr.durations("facade.sim_second"), "facade.sim_second_ms_p50", "ms", 1e3, 0.5)
	res.addSpan(tr.durations("facade.sim_second"), "facade.sim_second_ms_p95", "ms", 1e3, 0.95)
	res.addSpan(tr.perRep("facade.result"), "facade.result_s", "s", 1, 0.5)
	res.addSpan(tr.perRep("sweep.run"), "sweep.run_s", "s", 1, 0.5)
	res.addSpan(tr.perRep("sweep.json"), "sweep.json_s", "s", 1, 0.5)
	res.addSpan(tr.durations("fuzzing.generate"), "fuzzing.generate_us_p50", "us", 1e6, 0.5)
	res.addSpan(tr.durations("fuzzing.run"), "fuzzing.run_ms_p50", "ms", 1e3, 0.5)
	res.addSpan(tr.durations("fuzzing.run"), "fuzzing.run_ms_p95", "ms", 1e3, 0.95)
	if gens := counts["fuzzing.hunt_gens"]; gens > 0 {
		res.addValue("fuzzing.hunt_gen_s", "s", median(tr.perRep("fuzzing.hunt"))/gens)
	}
	res.addSpan(tr.perRep("fuzzing.shrink"), "fuzzing.shrink_s", "s", 1, 0.5)

	// Counters the layers export, read by the workloads that hold their
	// Experiments; they repeat exactly, so the last repetition's stand.
	events, ok := counts["sim.events"]
	if !ok {
		return
	}
	advance := counts["sim.advance_s"]
	res.addValue("sim.events", "count", events)
	res.addValue("sim.events_per_sim_s", "1/sim-s", events/traced[0].simSecond)
	res.addValue("sim.ns_per_event", "ns", advance*1e9/events)
	for key, ev := range counts {
		if label, ok := strings.CutPrefix(key, "sim.events:"); ok {
			res.addValue("sim.ns_per_event."+strings.ReplaceAll(label, "/", "."), "ns", counts["sim.advance_s:"+label]*1e9/ev)
		}
	}
	res.addValue("packet.issued", "count", counts["packet.issued"])
	res.addValue("packet.recycled_ratio", "ratio", counts["packet.recycled"]/counts["packet.issued"])
	res.addValue("netsim.packets", "count", counts["netsim.packets"])
	res.addValue("netsim.drops", "count", counts["netsim.drops"])
	res.addValue("netsim.drop_ratio", "ratio", counts["netsim.drops"]/counts["netsim.packets"])
	res.addValue("mcast.feedback_absorbed", "count", counts["mcast.feedback_absorbed"])
	res.addValue("mcast.feedback_forwarded", "count", counts["mcast.feedback_forwarded"])
}

// addSpan records one statistic of a set of span durations (seconds),
// scaled to the metric's unit; q is the quantile, 0.5 for the median.
func (res *workloadResult) addSpan(durations []float64, name, unit string, factor, q float64) {
	if len(durations) == 0 {
		return
	}
	res.addValue(name, unit, quantile(durations, q)*factor)
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where the
// kernel does not report one.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
