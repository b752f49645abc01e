package deltasigma

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"deltasigma/internal/campaign"
	"deltasigma/internal/packet"
	"deltasigma/internal/stats"
	"deltasigma/internal/topo"
)

// TopologySpec names a topology family for sweep grids: Build constructs
// one instance sized to a grid point's bottleneck capacity and seed.
type TopologySpec struct {
	// Name labels the family in points and output ("dumbbell", "chain3"…).
	Name string
	// Build constructs the topology for one grid point.
	Build func(bottleneck int64, seed uint64) Topology
}

// DumbbellSpec is the paper's single-bottleneck dumbbell sized to the grid
// point's capacity.
func DumbbellSpec() TopologySpec {
	return TopologySpec{
		Name: "dumbbell",
		Build: func(bottleneck int64, seed uint64) Topology {
			return topo.New(topo.PaperConfig(bottleneck, seed))
		},
	}
}

// ChainSpec is a parking-lot chain of `hops` bottlenecks, each at the grid
// point's capacity.
func ChainSpec(hops int) TopologySpec {
	if hops < 1 {
		hops = 1
	}
	return TopologySpec{
		Name: fmt.Sprintf("chain%d", hops),
		Build: func(bottleneck int64, seed uint64) Topology {
			caps := make([]int64, hops)
			for i := range caps {
				caps[i] = bottleneck
			}
			return topo.NewChain(topo.ChainConfig{Bottlenecks: caps, Seed: seed})
		},
	}
}

// StarSpec is a hub-and-spoke star with `spokes` gatekept spokes, each at
// the grid point's capacity; receivers round-robin across the spokes.
func StarSpec(spokes int) TopologySpec {
	if spokes < 1 {
		spokes = 1
	}
	return TopologySpec{
		Name: fmt.Sprintf("star%d", spokes),
		Build: func(bottleneck int64, seed uint64) Topology {
			caps := make([]int64, spokes)
			for i := range caps {
				caps[i] = bottleneck
			}
			return topo.NewStar(topo.StarConfig{Spokes: caps, Seed: seed})
		},
	}
}

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
// axes, one independent Experiment per grid point. Zero-length axes
// collapse to a single default value, so callers set only the dimensions
// they sweep. Run executes the grid on a bounded worker pool; because
// every point owns its scheduler, RNG and topology, points run in
// parallel without sharing state, and results are merged in grid order so
// the campaign output is byte-identical whatever the worker count.
//
//	res, err := deltasigma.Sweep{
//		Protocols: []string{"flid-dl", "flid-ds"},
//		Receivers: []int{1, 10, 100},
//		Attackers: []int{0, 1},
//		Duration:  30 * deltasigma.Second,
//	}.Run(0) // 0 = one worker per CPU
type Sweep struct {
	// Name labels the campaign in results.
	Name string

	// Axes. The first axis varies slowest in grid order.
	Protocols    []string       // default {"flid-ds"}
	Topologies   []TopologySpec // default {DumbbellSpec()}
	Receivers    []int          // well-behaved receivers per point; default {1}
	Attackers    []int          // attackers per point; default {0}
	Strategies   []string       // attacker strategies; "" = classic; default {""}
	Cohorts      []int          // aggregated population per point; 0 = none; default {0}
	Bottlenecks  []int64        // bottleneck bits/s; default {1_000_000}
	Slots        []Time         // slot durations; 0 = protocol default; default {0}
	DelaySpreads []Time         // max absolute access delay across receivers; default {0}
	ChurnRates   []float64      // Poisson membership toggles/second; 0 = static membership; default {0}
	AttackAts    []Time         // attacker onset times; 0 = the sweep-level AttackAt; default {0}
	FlapPeriods  []Time         // bottleneck flap periods (down a tenth of each); 0 = stable link; default {0}
	Seeds        []uint64       // seed replicas; default {1}

	// Duration is the simulated length of every point (default 30 s).
	Duration Time
	// Warmup is excluded from throughput statistics (default Duration/10).
	Warmup Time
	// AttackAt is when attackers inflate (default Duration/4).
	AttackAt Time
	// Schedule overrides the session rate schedule (zero value = paper's).
	Schedule RateSchedule
	// Shards, when above 1, runs each static grid point under sharded
	// execution (WithShards): results are byte-identical to serial, only
	// wall-clock changes. Points with mid-run dynamics — attackers, churn,
	// link flapping — always run serially (their events ride the timeline).
	// Run divides the worker pool by the shard count so shards × workers
	// stays within the machine. 0 (the default) and 1 run everything serial.
	Shards int
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
	if err := cw.Write([]string{
		"protocol", "topology", "receivers", "attackers", "strategy", "cohort", "bottleneck_bps",
		"slot_ms", "delay_spread_ms", "churn_rate", "attack_at_ms", "flap_period_ms", "seed",
		"good_mean_kbps", "good_p10_kbps", "good_p50_kbps", "good_p90_kbps",
		"attacker_mean_kbps", "suppression", "utilization", "lost_packets", "error",
	}); err != nil {
		return err
	}
	for _, pt := range c.Points {
		p := pt.Point
		err := cw.Write([]string{
			p.Protocol, p.Topology,
			strconv.Itoa(p.Receivers), strconv.Itoa(p.Attackers),
			p.Strategy,
			strconv.Itoa(p.Cohort),
			strconv.FormatInt(p.BottleneckBps, 10),
			strconv.FormatFloat(float64(p.SlotNs)/float64(Millisecond), 'g', -1, 64),
			strconv.FormatFloat(float64(p.DelaySpreadNs)/float64(Millisecond), 'g', -1, 64),
			strconv.FormatFloat(p.ChurnRate, 'g', -1, 64),
			strconv.FormatFloat(float64(p.AttackAtNs)/float64(Millisecond), 'g', -1, 64),
			strconv.FormatFloat(float64(p.FlapPeriodNs)/float64(Millisecond), 'g', -1, 64),
			strconv.FormatUint(p.Seed, 10),
			fmt.Sprintf("%.3f", pt.GoodMeanKbps),
			fmt.Sprintf("%.3f", pt.GoodP10Kbps),
			fmt.Sprintf("%.3f", pt.GoodP50Kbps),
			fmt.Sprintf("%.3f", pt.GoodP90Kbps),
			fmt.Sprintf("%.3f", pt.AttackerMeanKbps),
			fmt.Sprintf("%.4f", pt.Suppression),
			fmt.Sprintf("%.4f", pt.Utilization),
			strconv.FormatUint(pt.LostPackets, 10),
			pt.Error,
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// axes is a Sweep with every default applied.
type axes struct {
	protocols    []string
	topologies   []TopologySpec
	receivers    []int
	attackers    []int
	strategies   []string
	cohorts      []int
	bottlenecks  []int64
	slots        []Time
	delaySpreads []Time
	churnRates   []float64
	attackAts    []Time
	flapPeriods  []Time
	seeds        []uint64

	duration, warmup, attackAt Time
}

// defaultSweepDuration is the per-point simulated length when Duration is
// unset: long enough past the slow-start transient for stable averages.
const defaultSweepDuration = 30 * Second

func orInts(xs []int, def int) []int {
	if len(xs) == 0 {
		return []int{def}
	}
	return xs
}

// normalize applies axis defaults and validates the declared values.
func (sw Sweep) normalize() (axes, error) {
	a := axes{
		protocols:    sw.Protocols,
		topologies:   sw.Topologies,
		receivers:    orInts(sw.Receivers, 1),
		attackers:    orInts(sw.Attackers, 0),
		strategies:   sw.Strategies,
		cohorts:      orInts(sw.Cohorts, 0),
		bottlenecks:  sw.Bottlenecks,
		slots:        sw.Slots,
		delaySpreads: sw.DelaySpreads,
		churnRates:   sw.ChurnRates,
		attackAts:    sw.AttackAts,
		flapPeriods:  sw.FlapPeriods,
		seeds:        sw.Seeds,
		duration:     sw.Duration,
		warmup:       sw.Warmup,
		attackAt:     sw.AttackAt,
	}
	if len(a.protocols) == 0 {
		a.protocols = []string{"flid-ds"}
	}
	if len(a.topologies) == 0 {
		a.topologies = []TopologySpec{DumbbellSpec()}
	}
	if len(a.bottlenecks) == 0 {
		a.bottlenecks = []int64{1_000_000}
	}
	if len(a.slots) == 0 {
		a.slots = []Time{0}
	}
	if len(a.delaySpreads) == 0 {
		a.delaySpreads = []Time{0}
	}
	if len(a.churnRates) == 0 {
		a.churnRates = []float64{0}
	}
	if len(a.attackAts) == 0 {
		a.attackAts = []Time{0}
	}
	if len(a.flapPeriods) == 0 {
		a.flapPeriods = []Time{0}
	}
	if len(a.strategies) == 0 {
		a.strategies = []string{""}
	}
	if len(a.seeds) == 0 {
		a.seeds = []uint64{1}
	}
	// Zero means "default"; a negative value is a mistake, not a request
	// for the default.
	if a.duration < 0 || a.warmup < 0 || a.attackAt < 0 {
		return axes{}, fmt.Errorf("deltasigma: sweep duration %v, warmup %v and attack time %v must not be negative", a.duration, a.warmup, a.attackAt)
	}
	if a.duration == 0 {
		a.duration = defaultSweepDuration
	}
	if a.warmup == 0 {
		a.warmup = a.duration / 10
	}
	if a.warmup >= a.duration {
		return axes{}, fmt.Errorf("deltasigma: sweep warmup %v must be shorter than duration %v", a.warmup, a.duration)
	}
	if a.attackAt == 0 {
		a.attackAt = a.duration / 4
	}
	for _, n := range a.attackers {
		// An attack scheduled past the end would silently never happen and
		// the point would report a "defeated" attack that never ran.
		if n > 0 && a.attackAt >= a.duration {
			return axes{}, fmt.Errorf("deltasigma: sweep attack time %v must be inside duration %v", a.attackAt, a.duration)
		}
		for _, at := range a.attackAts {
			if n > 0 && at >= a.duration {
				return axes{}, fmt.Errorf("deltasigma: sweep attack onset %v must be inside duration %v", at, a.duration)
			}
		}
	}
	for _, r := range a.churnRates {
		if r < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep churn rate %g is negative", r)
		}
	}
	for _, at := range a.attackAts {
		if at < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep attack onset %v is negative", at)
		}
	}
	for _, p := range a.flapPeriods {
		if p < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep flap period %v is negative", p)
		}
		if p > 0 && p >= a.duration {
			return axes{}, fmt.Errorf("deltasigma: sweep flap period %v must be inside duration %v", p, a.duration)
		}
	}
	for _, t := range a.topologies {
		if t.Build == nil {
			return axes{}, fmt.Errorf("deltasigma: topology spec %q has no Build", t.Name)
		}
	}
	for _, r := range a.receivers {
		if r < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep receiver count %d is negative", r)
		}
	}
	for _, n := range a.attackers {
		if n < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep attacker count %d is negative", n)
		}
	}
	for _, n := range a.cohorts {
		if n < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep cohort population %d is negative", n)
		}
	}
	for _, st := range a.strategies {
		switch AttackerStrategy(st) {
		case "", StrategyClassic, StrategyColluding, StrategyAdaptive, StrategyForging:
		default:
			return axes{}, fmt.Errorf("deltasigma: sweep attacker strategy %q is not one of %v", st, AttackerStrategies())
		}
	}
	for _, c := range a.bottlenecks {
		if c <= 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep bottleneck %d must be positive", c)
		}
	}
	for _, s := range a.slots {
		if s < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep slot %v is negative", s)
		}
	}
	for _, d := range a.delaySpreads {
		if d < 0 {
			return axes{}, fmt.Errorf("deltasigma: sweep delay spread %v is negative", d)
		}
	}
	return a, nil
}

func (a axes) grid() (campaign.Grid, error) {
	return campaign.NewGrid(
		len(a.protocols), len(a.topologies), len(a.receivers), len(a.attackers),
		len(a.strategies), len(a.cohorts), len(a.bottlenecks), len(a.slots),
		len(a.delaySpreads), len(a.churnRates), len(a.attackAts), len(a.flapPeriods),
		len(a.seeds))
}

// point materializes grid coordinates into a SweepPoint and its topology
// spec.
func (a axes) point(coords []int) (SweepPoint, TopologySpec) {
	spec := a.topologies[coords[1]]
	return SweepPoint{
		Protocol:      a.protocols[coords[0]],
		Topology:      spec.Name,
		Receivers:     a.receivers[coords[2]],
		Attackers:     a.attackers[coords[3]],
		Strategy:      a.strategies[coords[4]],
		Cohort:        a.cohorts[coords[5]],
		BottleneckBps: a.bottlenecks[coords[6]],
		SlotNs:        a.slots[coords[7]],
		DelaySpreadNs: a.delaySpreads[coords[8]],
		ChurnRate:     a.churnRates[coords[9]],
		AttackAtNs:    a.attackAts[coords[10]],
		FlapPeriodNs:  a.flapPeriods[coords[11]],
		Seed:          a.seeds[coords[12]],
	}, spec
}

// Size returns the number of grid points the sweep declares (0 if the
// sweep is invalid).
func (sw Sweep) Size() int {
	a, err := sw.normalize()
	if err != nil {
		return 0
	}
	g, err := a.grid()
	if err != nil {
		return 0
	}
	return g.Size()
}

// Points enumerates every grid point in grid order.
func (sw Sweep) Points() ([]SweepPoint, error) {
	a, err := sw.normalize()
	if err != nil {
		return nil, err
	}
	g, err := a.grid()
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, g.Size())
	for i := range pts {
		pts[i], _ = a.point(g.Coords(i))
	}
	return pts, nil
}

// Run executes every grid point on a pool of `workers` goroutines (0 = one
// per CPU) and merges the results in grid order. Each point is one
// independent Experiment with its own scheduler and RNG, so the returned
// CampaignResult — including its JSON and CSV serializations — is
// byte-identical for any worker count. A point that fails to build or
// panics reports through its PointResult.Error; the rest of the grid is
// unaffected.
func (sw Sweep) Run(workers int) (*CampaignResult, error) {
	a, err := sw.normalize()
	if err != nil {
		return nil, err
	}
	g, err := a.grid()
	if err != nil {
		return nil, err
	}
	if sw.Shards > 1 {
		// Shards multiply each point's goroutine footprint: shrink the
		// worker pool so shards × workers stays at the declared budget
		// (grid order keeps output byte-identical whatever the split).
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers = workers / sw.Shards; workers < 1 {
			workers = 1
		}
	}
	start := time.Now()
	results := make([]PointResult, g.Size())
	// One packet pool per worker: a worker runs its grid points
	// sequentially, so consecutive experiments recycle the same warm
	// freelist instead of re-allocating every envelope. Results stay
	// byte-identical for any worker count because pooling only changes
	// where envelopes come from, never what the simulation computes.
	pools := make([]*packet.Pool, campaign.EffectiveWorkers(g.Size(), workers))
	for i := range pools {
		pools[i] = &packet.Pool{}
	}
	errs := campaign.Run(g.Size(), workers, func(w, i int) error {
		p, spec := a.point(g.Coords(i))
		r, err := sw.runPoint(a, p, spec, pools[w])
		r.Point = p
		results[i] = r
		return err
	})
	res := &CampaignResult{
		Name:       sw.Name,
		DurationNs: a.duration,
		Points:     results,
		Elapsed:    time.Since(start),
	}
	for i, err := range errs {
		if err != nil {
			// A panicking job never stored its result; rebuild the point so
			// the failed entry still says what it was.
			if results[i].Point == (SweepPoint{}) {
				results[i].Point, _ = a.point(g.Coords(i))
			}
			results[i].Error = err.Error()
			res.Failures++
		}
	}
	return res, nil
}

// runPoint builds and runs one grid point's experiment and aggregates its
// statistics. pool, when non-nil, is the running worker's reusable packet
// pool.
func (sw Sweep) runPoint(a axes, p SweepPoint, spec TopologySpec, pool *packet.Pool) (PointResult, error) {
	var pr PointResult
	opts := []Option{
		WithProtocol(p.Protocol),
		WithSeed(p.Seed),
		WithTopologyFunc(func(seed uint64) Topology { return spec.Build(p.BottleneckBps, seed) }),
	}
	if pool != nil {
		opts = append(opts, WithPacketPool(pool))
	}
	if sw.Shards > 1 && p.Attackers == 0 && p.ChurnRate == 0 && p.FlapPeriodNs == 0 {
		// Static points shard; dynamic ones script timeline events below,
		// which forces serial execution anyway — skip the detour.
		opts = append(opts, WithShards(sw.Shards))
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
		onset := a.attackAt
		if p.AttackAtNs > 0 {
			onset = p.AttackAtNs
		}
		e.AddEvents(AttackerOnset{At: onset, Session: 1})
	}
	if p.ChurnRate > 0 {
		e.AddEvents(PoissonChurn{Session: 1, Rate: p.ChurnRate, To: a.duration})
	}
	if p.FlapPeriodNs > 0 {
		e.AddEvents(LinkFlap{Link: 0, Period: p.FlapPeriodNs, To: a.duration})
	}
	if sw.Configure != nil {
		if err := sw.Configure(p, e); err != nil {
			return pr, err
		}
	}

	e.Advance(a.duration)

	var good, atk []float64
	var goodSum, goodWeight float64
	for _, r := range s.Receivers {
		avg := r.Meter().AvgKbps(a.warmup, a.duration)
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
		per := c.Meter().AvgKbps(a.warmup, a.duration) / float64(c.Members())
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
