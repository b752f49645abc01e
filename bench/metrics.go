package main

// metricDef names one metric of the benchmark contract: BENCHMARK.json lists
// exactly these, and bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before the benchmark contract rejects a change.
	// Per-layer metrics have none.
	Bound float64
}

// endToEndMetrics are what a user of the simulator sees, reported per
// workload with tracing off. failed_share and output_digest complete the
// seven: the contract carries them as failed/attempted and correct.
//
// These bounds are what BENCHMARK.json carries, and they are loose on
// purpose: the contract's acceptance runs every workload on ten different
// seeds on a shared host and wants the spread of each metric across those
// runs within its bound. The allocation metrics are exact for one seed but
// move by up to 5 % between seeds; host time on the reference sandbox moves
// by 10-17 % between back-to-back runs of the same seed (README.md, "Noise").
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_s_per_s", "sim-s/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
}

// sameSeedBounds are the bounds -compare applies. It compares two runs of
// one seed, where the allocation metrics repeat to 1e-5 and only host noise
// separates the timings, so it can hold a change to far less than the
// contract's cross-seed bounds can.
var sameSeedBounds = map[string]float64{
	"setup_s":         0.15,
	"wall_s":          0.10,
	"sim_s_per_s":     0.10,
	"allocs_per_op":   0.01,
	"alloc_mb_per_op": 0.02,
}

// tightWall lists the workloads whose repetitions are one goroutine on
// fixed work, which earns them a 5 % bound on wall_s and sim_s_per_s; the
// two campaign workloads share two cores with the collector and get 10 %.
var tightWall = map[string]bool{"figures": true, "population": true, "million": true}

// boundFor is the regression bound -compare holds one end-to-end metric to
// on one workload.
func boundFor(workload string, def metricDef) float64 {
	if (def.Name == "wall_s" || def.Name == "sim_s_per_s") && tightWall[workload] {
		return 0.05
	}
	return sameSeedBounds[def.Name]
}

// perLayerMetrics are the per-layer metrics every traced run emits on every
// workload: the tracing overhead, the CPU profile folded by layer, the
// runtime's memory readings, and the isolated layer drivers. Span and
// counter metrics exist only on the workloads that produce them, so they
// are reported and written to result files but are not part of this list.
func perLayerMetrics() []metricDef {
	defs := []metricDef{{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"}}
	for _, layer := range profiledLayers {
		defs = append(defs, metricDef{Name: layer + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	)
	for _, d := range layerDrivers {
		defs = append(defs, d.metrics...)
	}
	return defs
}
