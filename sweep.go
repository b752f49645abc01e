package deltasigma

import (
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"deltasigma/internal/campaign"
	"deltasigma/internal/packet"
	"deltasigma/internal/stats"
)

// SweepPoint identifies one grid point of a Sweep: the value picked from
// every axis.
type SweepPoint struct {
	Protocol  string `json:"protocol"`
	Topology  string `json:"topology"`
	Receivers int    `json:"receivers"`
	Attackers int    `json:"attackers"`
	// Strategy selects the attacker behaviour (AttackerStrategy) for every
	// attacker of the point; empty means the classic plain inflator.
	Strategy string `json:"strategy,omitempty"`
	// Cohort, when positive, adds one aggregated population of that many
	// well-behaved receivers (see ExperimentSession.AddCohort) alongside
	// the exact Receivers and Attackers.
	Cohort        int   `json:"cohort,omitempty"`
	BottleneckBps int64 `json:"bottleneck_bps"`
	// SlotNs is the declared slot duration (0 = the protocol default).
	SlotNs Time `json:"slot_ns,omitempty"`
	// DelaySpreadNs, when positive, assigns receiver i (of N) the absolute
	// access delay spread·(i+1)/N — delays rise linearly to the declared
	// maximum, replacing the topology default (0 = topology default for
	// all receivers).
	DelaySpreadNs Time `json:"delay_spread_ns,omitempty"`
	// ChurnRate, when positive, drives Poisson membership churn at this
	// many toggles/second across the point's well-behaved receivers for
	// the whole run.
	ChurnRate float64 `json:"churn_rate,omitempty"`
	// AttackAtNs, when positive, overrides the sweep-level AttackAt for
	// this point (the attacker-onset-time axis).
	AttackAtNs Time `json:"attack_at_ns,omitempty"`
	// FlapPeriodNs, when positive, flaps the first bottleneck: down every
	// period for a tenth of it.
	FlapPeriodNs Time   `json:"flap_period_ns,omitempty"`
	Seed         uint64 `json:"seed"`
}

// String renders the point compactly for logs and tables.
func (p SweepPoint) String() string {
	s := fmt.Sprintf("%s/%s r=%d a=%d cap=%d seed=%d",
		p.Protocol, p.Topology, p.Receivers, p.Attackers, p.BottleneckBps, p.Seed)
	if p.Strategy != "" {
		s += " strat=" + p.Strategy
	}
	if p.Cohort > 0 {
		s += fmt.Sprintf(" cohort=%d", p.Cohort)
	}
	if p.SlotNs > 0 {
		s += fmt.Sprintf(" slot=%v", p.SlotNs)
	}
	if p.DelaySpreadNs > 0 {
		s += fmt.Sprintf(" spread=%v", p.DelaySpreadNs)
	}
	if p.ChurnRate > 0 {
		s += fmt.Sprintf(" churn=%g/s", p.ChurnRate)
	}
	if p.AttackAtNs > 0 {
		s += fmt.Sprintf(" onset=%v", p.AttackAtNs)
	}
	if p.FlapPeriodNs > 0 {
		s += fmt.Sprintf(" flap=%v", p.FlapPeriodNs)
	}
	return s
}

// Sweep declares a parameter-sweep campaign: the cartesian product of its
// axes, one independent Experiment per distinct grid point. Zero-length
// axes collapse to a single default value, so callers set only the
// dimensions they sweep. Run executes the grid on a bounded worker pool;
// because every experiment owns its scheduler, RNG and topology, they run
// in parallel without sharing state, and results are merged in grid order
// so the campaign output is byte-identical whatever the worker count.
// Points whose axes cannot change the run (an adaptive attacker's onset,
// say) share one experiment; see Run.
//
//	res, err := deltasigma.Sweep{
//		Protocols: []string{"flid-dl", "flid-ds"},
//		Receivers: []int{1, 10, 100},
//		Attackers: []int{0, 1},
//		Duration:  30 * deltasigma.Second,
//	}.Run(0) // 0 = one worker per core GOMAXPROCS allows
type Sweep struct {
	// Name labels the campaign in results.
	Name string

	// Axes. The first axis varies slowest in grid order.
	Protocols    []string  // default {"flid-ds"}
	Topologies   []string  // "dumbbell", "chain<N>" or "star<N>", hops at the bottleneck; default {"dumbbell"}
	Receivers    []int     // well-behaved receivers per point; default {1}
	Attackers    []int     // attackers per point; default {0}
	Strategies   []string  // attacker strategies; "" = classic; default {""}
	Cohorts      []int     // aggregated population per point; 0 = none; default {0}
	Bottlenecks  []int64   // bottleneck bits/s; default {1_000_000}
	Slots        []Time    // slot durations; 0 = protocol default; default {0}
	DelaySpreads []Time    // max absolute access delay across receivers; default {0}
	ChurnRates   []float64 // Poisson membership toggles/second; 0 = static membership; default {0}
	AttackAts    []Time    // attacker onset times; 0 = the sweep-level AttackAt; default {0}
	FlapPeriods  []Time    // bottleneck flap periods (down a tenth of each); 0 = stable link; default {0}
	Seeds        []uint64  // seed replicas; default {1}

	// Duration is the simulated length of every point (default 30 s).
	Duration Time
	// Warmup is excluded from throughput statistics (default Duration/10).
	Warmup Time
	// AttackAt is when attackers inflate (default Duration/4).
	AttackAt Time
	// Schedule overrides the session rate schedule (zero value = paper's).
	Schedule RateSchedule
	// Configure, when set, customizes each point's experiment after the
	// session is wired and before it runs — cross traffic, extra sessions,
	// protocol knobs. Returning an error fails the point, not the campaign.
	Configure func(p SweepPoint, e *Experiment) error
}

// PointResult aggregates one grid point's run. Throughput statistics are
// in Kbps over [Warmup, Duration); percentiles are across the point's
// well-behaved receivers.
type PointResult struct {
	Point        SweepPoint `json:"point"`
	GoodMeanKbps float64    `json:"good_mean_kbps"`
	GoodP10Kbps  float64    `json:"good_p10_kbps"`
	GoodP50Kbps  float64    `json:"good_p50_kbps"`
	GoodP90Kbps  float64    `json:"good_p90_kbps"`
	// AttackerMeanKbps is the mean attacker throughput (0 without attackers).
	AttackerMeanKbps float64 `json:"attacker_mean_kbps"`
	// Suppression gauges how well the protocol held attackers to a fair
	// share: goodMean/(goodMean+attackerMean), so 0.5 means attackers got
	// exactly the well-behaved mean, above 0.5 they got less (suppressed,
	// up to 1 for fully starved), below 0.5 the inflation succeeded. Zero
	// when the point has no attackers (check Point.Attackers to tell that
	// apart from a fully successful attack).
	Suppression float64 `json:"suppression"`
	// Utilization is the mean bottleneck utilization in [0,1].
	Utilization float64 `json:"utilization"`
	// LostPackets totals packets lost at the point's bottlenecks:
	// drop-tail drops plus outage (down-link) discards.
	LostPackets uint64 `json:"lost_packets"`
	// Error is set when the point failed to build or run; statistics are
	// zero in that case and the rest of the campaign is unaffected.
	Error string `json:"error,omitempty"`
}

// CampaignResult is the deterministic outcome of Sweep.Run: one
// PointResult per grid point, in grid order.
type CampaignResult struct {
	Name string `json:"name,omitempty"`
	// DurationNs is the simulated length of every point.
	DurationNs Time `json:"duration_ns"`
	// Points holds one entry per grid point in grid order (first axis
	// slowest), independent of worker scheduling.
	Points []PointResult `json:"points"`
	// Failures counts points whose Error is set.
	Failures int `json:"failures"`
	// Elapsed is the wall-clock cost of Run. It is deliberately excluded
	// from serialization so output stays byte-identical across worker
	// counts and machines.
	Elapsed time.Duration `json:"-"`
}

// JSON renders the campaign as indented, deterministic JSON.
func (c *CampaignResult) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// WriteCSV renders the campaign as one CSV row per grid point.
func (c *CampaignResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	row := make([]string, len(csvColumns))
	for i, col := range csvColumns {
		row[i] = col.name
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for i := range c.Points {
		for j, col := range csvColumns {
			row[j] = col.cell(&c.Points[i])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvColumns is WriteCSV's column table: each column's header and how one
// point's result renders in it.
var csvColumns = []struct {
	name string
	cell func(r *PointResult) string
}{
	{"protocol", func(r *PointResult) string { return r.Point.Protocol }},
	{"topology", func(r *PointResult) string { return r.Point.Topology }},
	{"receivers", func(r *PointResult) string { return strconv.Itoa(r.Point.Receivers) }},
	{"attackers", func(r *PointResult) string { return strconv.Itoa(r.Point.Attackers) }},
	{"strategy", func(r *PointResult) string { return r.Point.Strategy }},
	{"cohort", func(r *PointResult) string { return strconv.Itoa(r.Point.Cohort) }},
	{"bottleneck_bps", func(r *PointResult) string { return strconv.FormatInt(r.Point.BottleneckBps, 10) }},
	{"slot_ms", func(r *PointResult) string { return csvMillis(r.Point.SlotNs) }},
	{"delay_spread_ms", func(r *PointResult) string { return csvMillis(r.Point.DelaySpreadNs) }},
	{"churn_rate", func(r *PointResult) string { return strconv.FormatFloat(r.Point.ChurnRate, 'g', -1, 64) }},
	{"attack_at_ms", func(r *PointResult) string { return csvMillis(r.Point.AttackAtNs) }},
	{"flap_period_ms", func(r *PointResult) string { return csvMillis(r.Point.FlapPeriodNs) }},
	{"seed", func(r *PointResult) string { return strconv.FormatUint(r.Point.Seed, 10) }},
	{"good_mean_kbps", func(r *PointResult) string { return fmt.Sprintf("%.3f", r.GoodMeanKbps) }},
	{"good_p10_kbps", func(r *PointResult) string { return fmt.Sprintf("%.3f", r.GoodP10Kbps) }},
	{"good_p50_kbps", func(r *PointResult) string { return fmt.Sprintf("%.3f", r.GoodP50Kbps) }},
	{"good_p90_kbps", func(r *PointResult) string { return fmt.Sprintf("%.3f", r.GoodP90Kbps) }},
	{"attacker_mean_kbps", func(r *PointResult) string { return fmt.Sprintf("%.3f", r.AttackerMeanKbps) }},
	{"suppression", func(r *PointResult) string { return fmt.Sprintf("%.4f", r.Suppression) }},
	{"utilization", func(r *PointResult) string { return fmt.Sprintf("%.4f", r.Utilization) }},
	{"lost_packets", func(r *PointResult) string { return strconv.FormatUint(r.LostPackets, 10) }},
	{"error", func(r *PointResult) string { return r.Error }},
}

// csvMillis renders a duration as fractional milliseconds.
func csvMillis(t Time) string {
	return strconv.FormatFloat(float64(t)/float64(Millisecond), 'g', -1, 64)
}

// defaultSweepDuration is the per-point simulated length when Duration is
// unset: long enough past the slow-start transient for stable averages.
const defaultSweepDuration = 30 * Second

// orDefault is xs, or the one-value axis {def} when xs is empty.
func orDefault[T any](xs []T, def T) []T {
	if len(xs) == 0 {
		return []T{def}
	}
	return xs
}

// negative reports whether an axis value is below zero.
func negative[T ~int | ~int64 | ~float64](x T) bool { return x < 0 }

// reject reports the first value of xs that bad flags, as "deltasigma:
// sweep " + format with the value as its first argument.
func reject[T any](xs []T, bad func(T) bool, format string, args ...any) error {
	for _, x := range xs {
		if bad(x) {
			return fmt.Errorf("deltasigma: sweep "+format, append([]any{x}, args...)...)
		}
	}
	return nil
}

// normalize returns sw with every default applied, or an error naming the
// first declared value it cannot run.
func (sw Sweep) normalize() (Sweep, error) {
	// Zero means "default"; a negative value is a mistake, not a request
	// for the default.
	if sw.Duration < 0 || sw.Warmup < 0 || sw.AttackAt < 0 {
		return sw, fmt.Errorf("deltasigma: sweep duration %v, warmup %v and attack time %v must not be negative", sw.Duration, sw.Warmup, sw.AttackAt)
	}
	sw.Protocols = orDefault(sw.Protocols, "flid-ds")
	sw.Topologies = orDefault(sw.Topologies, "dumbbell")
	sw.Receivers = orDefault(sw.Receivers, 1)
	sw.Attackers = orDefault(sw.Attackers, 0)
	sw.Strategies = orDefault(sw.Strategies, "")
	sw.Cohorts = orDefault(sw.Cohorts, 0)
	sw.Bottlenecks = orDefault(sw.Bottlenecks, 1_000_000)
	sw.Slots = orDefault(sw.Slots, 0)
	sw.DelaySpreads = orDefault(sw.DelaySpreads, 0)
	sw.ChurnRates = orDefault(sw.ChurnRates, 0)
	sw.AttackAts = orDefault(sw.AttackAts, 0)
	sw.FlapPeriods = orDefault(sw.FlapPeriods, 0)
	sw.Seeds = orDefault(sw.Seeds, 1)
	sw.Duration = cmp.Or(sw.Duration, defaultSweepDuration)
	sw.Warmup = cmp.Or(sw.Warmup, sw.Duration/10)
	if sw.Warmup >= sw.Duration {
		return sw, fmt.Errorf("deltasigma: sweep warmup %v must be shorter than duration %v", sw.Warmup, sw.Duration)
	}
	sw.AttackAt = cmp.Or(sw.AttackAt, sw.Duration/4)
	pastEnd := func(t Time) bool { return t >= sw.Duration }
	if slices.ContainsFunc(sw.Attackers, func(n int) bool { return n > 0 }) {
		// An attack scheduled past the end would silently never happen and
		// the point would report a "defeated" attack that never ran.
		if pastEnd(sw.AttackAt) {
			return sw, fmt.Errorf("deltasigma: sweep attack time %v must be inside duration %v", sw.AttackAt, sw.Duration)
		}
		if err := reject(sw.AttackAts, pastEnd, "attack onset %v must be inside duration %v", sw.Duration); err != nil {
			return sw, err
		}
	}
	if sw.size() > maxSweepPoints {
		return sw, fmt.Errorf("deltasigma: sweep grid larger than 2^30 points")
	}
	return sw, cmp.Or(
		reject(sw.Topologies, func(name string) bool { _, _, ok := parseTopology(name); return !ok },
			"topology %q is not dumbbell, chain<N> or star<N> with N ≥ 1"),
		reject(sw.ChurnRates, negative[float64], "churn rate %g is negative"),
		reject(sw.AttackAts, negative[Time], "attack onset %v is negative"),
		reject(sw.FlapPeriods, negative[Time], "flap period %v is negative"),
		reject(sw.FlapPeriods, pastEnd, "flap period %v must be inside duration %v", sw.Duration),
		reject(sw.Receivers, negative[int], "receiver count %d is negative"),
		reject(sw.Attackers, negative[int], "attacker count %d is negative"),
		reject(sw.Cohorts, negative[int], "cohort population %d is negative"),
		reject(sw.Strategies, func(st string) bool { return st != "" && !AttackerStrategy(st).valid() },
			"attacker strategy %q is not one of %v", attackerStrategies()),
		reject(sw.Bottlenecks, func(c int64) bool { return c <= 0 }, "bottleneck %d must be positive"),
		reject(sw.Slots, negative[Time], "slot %v is negative"),
		reject(sw.DelaySpreads, negative[Time], "delay spread %v is negative"),
	)
}

// sweepAxis is one axis of a normalized Sweep: how many values it holds and
// how the value at a coordinate lands in a SweepPoint.
type sweepAxis struct {
	len int
	set func(p *SweepPoint, i int)
}

// axes lists a normalized sweep's axes in grid order, first slowest.
func (sw Sweep) axes() []sweepAxis {
	return []sweepAxis{
		{len(sw.Protocols), func(p *SweepPoint, i int) { p.Protocol = sw.Protocols[i] }},
		{len(sw.Topologies), func(p *SweepPoint, i int) { p.Topology = sw.Topologies[i] }},
		{len(sw.Receivers), func(p *SweepPoint, i int) { p.Receivers = sw.Receivers[i] }},
		{len(sw.Attackers), func(p *SweepPoint, i int) { p.Attackers = sw.Attackers[i] }},
		{len(sw.Strategies), func(p *SweepPoint, i int) { p.Strategy = sw.Strategies[i] }},
		{len(sw.Cohorts), func(p *SweepPoint, i int) { p.Cohort = sw.Cohorts[i] }},
		{len(sw.Bottlenecks), func(p *SweepPoint, i int) { p.BottleneckBps = sw.Bottlenecks[i] }},
		{len(sw.Slots), func(p *SweepPoint, i int) { p.SlotNs = sw.Slots[i] }},
		{len(sw.DelaySpreads), func(p *SweepPoint, i int) { p.DelaySpreadNs = sw.DelaySpreads[i] }},
		{len(sw.ChurnRates), func(p *SweepPoint, i int) { p.ChurnRate = sw.ChurnRates[i] }},
		{len(sw.AttackAts), func(p *SweepPoint, i int) { p.AttackAtNs = sw.AttackAts[i] }},
		{len(sw.FlapPeriods), func(p *SweepPoint, i int) { p.FlapPeriodNs = sw.FlapPeriods[i] }},
		{len(sw.Seeds), func(p *SweepPoint, i int) { p.Seed = sw.Seeds[i] }},
	}
}

// maxSweepPoints caps a sweep's grid, so that a mistyped axis fails
// upfront instead of allocating its points.
const maxSweepPoints = 1 << 30

// size counts a normalized sweep's grid points, up to one past
// maxSweepPoints.
func (sw Sweep) size() int {
	n := 1
	for _, a := range sw.axes() {
		if n > maxSweepPoints/a.len {
			return maxSweepPoints + 1
		}
		n *= a.len
	}
	return n
}

// points decodes every point of a normalized sweep in grid order: point i
// reads i as a mixed-radix number over the axes, the last axis fastest.
func (sw Sweep) points() []SweepPoint {
	axes := sw.axes()
	points := make([]SweepPoint, sw.size())
	for i := range points {
		rest := i
		for a := len(axes) - 1; a >= 0; a-- {
			axes[a].set(&points[i], rest%axes[a].len)
			rest /= axes[a].len
		}
	}
	return points
}

// parseTopology splits a sweep topology name into its kind and hop count:
// "dumbbell" is one hop, "chain<N>" and "star<N>" are N ≥ 1 hops, N
// written without sign or leading zeros so that each network has one
// name. ok is false for any other name.
func parseTopology(name string) (kind string, hops int, ok bool) {
	if name == "dumbbell" {
		return name, 1, true
	}
	for _, kind := range []string{"chain", "star"} {
		if rest, found := strings.CutPrefix(name, kind); found {
			hops, err := strconv.Atoi(rest)
			return kind, hops, err == nil && hops >= 1 && strconv.Itoa(hops) == rest
		}
	}
	return "", 0, false
}

// topology is the network the point names, every hop at its bottleneck.
func (p SweepPoint) topology() TopologySpec {
	kind, hops, _ := parseTopology(p.Topology)
	caps := make([]int64, hops)
	for i := range caps {
		caps[i] = p.BottleneckBps
	}
	return TopologySpec{Kind: kind, CapacitiesBps: caps}
}

// Size returns the number of grid points the sweep declares (0 if the
// sweep is invalid).
func (sw Sweep) Size() int {
	sw, err := sw.normalize()
	if err != nil {
		return 0
	}
	return sw.size()
}

// Points enumerates every grid point in grid order.
func (sw Sweep) Points() ([]SweepPoint, error) {
	sw, err := sw.normalize()
	if err != nil {
		return nil, err
	}
	return sw.points(), nil
}

// Run executes every distinct grid point on a pool of `workers` goroutines
// (0 = one per core GOMAXPROCS allows) and merges the results in grid
// order. Each distinct point is one independent Experiment with its own
// scheduler and RNG, so the returned CampaignResult — including its JSON and
// CSV serializations — is byte-identical for any worker count. A point that
// fails to build or panics reports through its PointResult.Error; the rest
// of the grid is unaffected.
//
// Points that build the same experiment (see runKey) run once: the first
// one in grid order is simulated, and every later one copies its result and
// error under its own Point. A sweep with a Configure hook runs every point,
// since the hook sees the raw point.
func (sw Sweep) Run(workers int) (*CampaignResult, error) {
	sw, err := sw.normalize()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	points := sw.points()
	owner := sw.owners(points)
	results := make([]PointResult, len(points))
	// One packet pool per worker: a worker runs its grid points
	// sequentially, so consecutive experiments recycle the same warm
	// freelist instead of re-allocating every envelope. Results stay
	// byte-identical for any worker count because pooling only changes
	// where envelopes come from, never what the simulation computes.
	pools := make([]*packet.Pool, campaign.EffectiveWorkers(len(points), workers))
	for i := range pools {
		pools[i] = &packet.Pool{}
	}
	// Jobs stay indexed by grid point, so a panic names the point that ran.
	errs := campaign.Run(len(points), workers, func(w, i int) error {
		if owner[i] != i {
			return nil // copied below from the point it shares a run with
		}
		var err error
		results[i], err = sw.runPoint(points[i], pools[w])
		return err
	})
	res := &CampaignResult{
		Name:       sw.Name,
		DurationNs: sw.Duration,
		Points:     results,
		Elapsed:    time.Since(start),
	}
	for i := range results {
		o := owner[i] // o <= i, so results[o] is already final
		results[i] = results[o]
		results[i].Point = points[i]
		if err := errs[o]; err != nil {
			results[i].Error = err.Error()
			res.Failures++
		}
	}
	return res, nil
}

// runKey is p as its experiment sees it: points with equal keys build
// identical experiments. A key only merges points proven equal by reading
// runPoint and TryAddAttacker; missing a merge costs a redundant run,
// never a wrong result. The topology name is the network's identity, so
// it stays; the axes a run ignores are canonicalized:
//   - without attackers, strategy and onset build nothing;
//   - an attacker's strategy is the one it runs (effectiveStrategy), so on
//     an unprotected protocol forging and colluding are classic;
//   - an adaptive attacker compiles its own onset, so the onset axis is
//     dropped.
func (p SweepPoint) runKey() SweepPoint {
	if p.Attackers == 0 {
		p.Strategy, p.AttackAtNs = "", 0
	} else if proto, ok := LookupProtocol(p.Protocol); ok {
		p.Strategy = string(effectiveStrategy(proto, AttackerStrategy(p.Strategy)))
	}
	if AttackerStrategy(p.Strategy) == StrategyAdaptive {
		p.AttackAtNs = 0
	}
	return p
}

// owners maps every grid point to the first point whose experiment it
// builds: itself when its key is new. With a Configure hook every point
// owns itself, because the hook may read any axis of the raw point.
func (sw Sweep) owners(points []SweepPoint) []int {
	owner := make([]int, len(points))
	first := make(map[SweepPoint]int, len(points))
	for i, p := range points {
		owner[i] = i
		if sw.Configure != nil {
			continue
		}
		k := p.runKey()
		if o, ok := first[k]; ok {
			owner[i] = o
		} else {
			first[k] = i
		}
	}
	return owner
}

// runPoint builds and runs grid point p and aggregates its statistics.
// pool, when non-nil, is the running worker's reusable packet pool.
func (sw Sweep) runPoint(p SweepPoint, pool *packet.Pool) (PointResult, error) {
	var pr PointResult
	opts := []Option{
		WithProtocol(p.Protocol),
		WithSeed(p.Seed),
		WithTopology(p.topology()),
	}
	if pool != nil {
		opts = append(opts, WithPacketPool(pool))
	}
	if p.SlotNs > 0 {
		opts = append(opts, WithSlot(p.SlotNs))
	}
	if sw.Schedule.N > 0 {
		opts = append(opts, WithSchedule(sw.Schedule))
	}
	e, err := New(opts...)
	if err != nil {
		return pr, err
	}
	// The worker's next point adopts this one's scheduler memory from pool.
	defer e.Close()

	s := e.AddSession(0)
	for i := 0; i < p.Receivers; i++ {
		delay := DefaultDelay
		if p.DelaySpreadNs > 0 {
			// Absolute access delays rising linearly to the declared
			// maximum (as the figure scenarios set them), so the point
			// covers the whole RTT range deterministically.
			delay = p.DelaySpreadNs * Time(i+1) / Time(p.Receivers)
		}
		s.AddReceiverDelay(delay)
	}
	for i := 0; i < p.Attackers; i++ {
		// The Try form, so attackerless protocols (ProtocolHasAttacker
		// false) surface their typed *NoAttackerError as the point's Error
		// instead of panicking the campaign.
		if _, err := s.TryAddAttacker(WithStrategy(AttackerStrategy(p.Strategy))); err != nil {
			return pr, err
		}
	}
	if p.Cohort > 0 {
		s.AddCohort(p.Cohort)
	}
	// Mid-run dynamics all ride the experiment timeline: attacker onset,
	// Poisson membership churn and bottleneck flapping are the same
	// mechanism a caller scripts through WithTimeline.
	if p.Attackers > 0 && AttackerStrategy(p.Strategy) != StrategyAdaptive {
		// Adaptive attackers compile their own onset from the declared
		// disturbances (churn/flap events below); a scripted AttackerOnset
		// on top would fight their inflation windows.
		onset := sw.AttackAt
		if p.AttackAtNs > 0 {
			onset = p.AttackAtNs
		}
		e.AddEvents(AttackerOnset{At: onset, Session: 1})
	}
	if p.ChurnRate > 0 {
		e.AddEvents(PoissonChurn{Session: 1, Rate: p.ChurnRate, To: sw.Duration})
	}
	if p.FlapPeriodNs > 0 {
		e.AddEvents(LinkFlap{Link: 0, Period: p.FlapPeriodNs, To: sw.Duration})
	}
	if sw.Configure != nil {
		if err := sw.Configure(p, e); err != nil {
			return pr, err
		}
	}

	e.Advance(sw.Duration)

	var good, atk []float64
	var goodSum, goodWeight float64
	for _, r := range s.Receivers {
		avg := r.Meter().AvgKbps(sw.Warmup, sw.Duration)
		if r.Attacker() {
			atk = append(atk, avg)
		} else {
			good = append(good, avg)
			goodSum += avg
			goodWeight++
		}
	}
	for _, c := range s.Cohorts {
		// A cohort's members are homogeneous, so the population enters the
		// statistics as one per-member sample carrying its member count as
		// weight: the mean is the true per-member mean across everyone,
		// and the percentile list gets one entry per population.
		per := c.Meter().AvgKbps(sw.Warmup, sw.Duration) / float64(c.Members())
		good = append(good, per)
		goodSum += per * float64(c.Members())
		goodWeight += float64(c.Members())
	}
	if goodWeight > 0 {
		pr.GoodMeanKbps = goodSum / goodWeight
	}
	sort.Float64s(good)
	pr.GoodP10Kbps = stats.PercentileSorted(good, 0.10)
	pr.GoodP50Kbps = stats.PercentileSorted(good, 0.50)
	pr.GoodP90Kbps = stats.PercentileSorted(good, 0.90)
	pr.AttackerMeanKbps = stats.Mean(atk)
	if len(atk) > 0 {
		if total := pr.GoodMeanKbps + pr.AttackerMeanKbps; total > 0 {
			pr.Suppression = pr.GoodMeanKbps / total
		}
	}

	var util float64
	links := e.Topo.Bottlenecks()
	for _, l := range links {
		// CapacityBits integrates rate over up-time, so points whose links
		// were re-rated, downed or flapped mid-run report true utilization.
		if capBits := l.CapacityBits(); capBits > 0 {
			util += float64(l.SentBytes) * 8 / capBits
		}
		pr.LostPackets += l.Queue.Dropped + l.DroppedDown
	}
	if len(links) > 0 {
		pr.Utilization = util / float64(len(links))
	}
	return pr, nil
}
