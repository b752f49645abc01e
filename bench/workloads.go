package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"deltasigma"
	"deltasigma/internal/campaign"
	"deltasigma/internal/fuzzing"
	"deltasigma/internal/scenario"
	"deltasigma/internal/sim"
)

// workload is one set of inputs the benchmark runs as a closed loop: the
// next simulation starts only when the previous one has returned.
type workload struct {
	name string
	why  string
	// workers is the worker-pool width the workload hands the campaign
	// layer; 1 means the repetition is one goroutine end to end.
	workers int
	// reps is the fixed repetition count of the timed section when the run
	// is not time-boxed with -seconds.
	reps int
	// prepare generates every input from the seed and returns the
	// repetition: the program under test sees only what it captured.
	prepare func(seed uint64, quick bool) func(tr *tracer) *repetition
}

// repetition is what one pass over a workload's inputs produced.
type repetition struct {
	// output is the deterministic result, digested into output_digest.
	output []byte
	// ops counts operations attempted: one figure, one experiment, one
	// grid point or one evaluated spec.
	ops int
	// simSeconds is the virtual time advanced, summed over experiments.
	simSeconds float64
	// failures lists failed output checks.
	failures []failure
	// audit, when set, runs after the timed window closes: checks that
	// need more simulation (drain audits) and must not count as work.
	audit func() []failure
	// counts holds what a traced repetition counted: the layers' counters,
	// for the workloads that hold their Experiments.
	counts map[string]float64
}

// failure is one failed output check and the operations it covers.
type failure struct {
	what string
	ops  int
}

func (r *repetition) failf(ops int, format string, args ...any) {
	r.failures = append(r.failures, failure{what: fmt.Sprintf(format, args...), ops: ops})
}

// campaignWorkers is the pool width of the two campaign workloads.
const campaignWorkers = 2

var workloads = []*workload{
	{
		name:    "figures",
		why:     "what a reader of the paper runs: the twelve section-5 figures at scale 0.25, few receivers behind one bottleneck, TCP/CBR cross traffic",
		workers: 1,
		reps:    11,
		prepare: prepareFigures,
	},
	{
		name:    "population",
		why:     "per-receiver work dominates: flid-dl and flid-ds with 100 and 1000 exact receivers; scheduler bursts and construction cost show here",
		workers: 1,
		reps:    9,
		prepare: preparePopulation,
	},
	{
		name:    "million",
		why:     "same engine, no per-receiver events: one 10^6-member fluid cohort per session, cost is sender emission, links and router consolidation",
		workers: 1,
		reps:    11,
		prepare: prepareMillion,
	},
	{
		name:    "shootout",
		why:     "168 short experiments on 2 workers, 7 protocols x 3 attacker models: construction, teardown, GC and the rival protocols matter",
		workers: campaignWorkers,
		reps:    15,
		prepare: prepareShootout,
	},
	{
		name:    "search",
		why:     "the dsim fuzz and hunt path on 2 workers: generator, mutator, shrinker and the invariant audit, which shootout runs without",
		workers: campaignWorkers,
		reps:    9,
		prepare: prepareSearch,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// ---------------------------------------------------------------------------
// figures

// figure is one of the paper's evaluation figures. simSeconds mirrors the
// durations in internal/scenario for scaled-down runs (Scale < 1): the
// figure functions own their experiments, so the virtual time they advance
// can only be counted from their definition.
type figure struct {
	name       string
	run        func(scenario.Options) *scenario.Result
	simSeconds func(scale float64) float64
}

func scaled(paperSeconds float64, runs int) func(float64) float64 {
	return func(scale float64) float64 { return paperSeconds * scale * float64(runs) }
}

// overheadSeconds is runOverheadPoint's duration rule: 60 s scaled, but at
// least twenty slots.
func overheadSeconds(slots ...float64) func(float64) float64 {
	return func(scale float64) float64 {
		var sum float64
		for _, slot := range slots {
			sum += max(60*scale, 20*slot)
		}
		return sum
	}
}

var figures = []figure{
	{"fig01", scenario.Fig1, scaled(200, 1)},
	{"fig07", scenario.Fig7, scaled(200, 1)},
	{"fig08a", scenario.Fig8a, scaled(200, 4)},
	{"fig08b", scenario.Fig8b, scaled(200, 4)},
	{"fig08c", scenario.Fig8c, scaled(200, 8)},
	{"fig08d", scenario.Fig8d, scaled(200, 8)},
	{"fig08e", scenario.Fig8e, scaled(100, 2)},
	{"fig08f", scenario.Fig8f, scaled(200, 2)},
	{"fig08g", scenario.Fig8g, scaled(40, 1)},
	{"fig08h", scenario.Fig8h, scaled(40, 1)},
	{"fig09a", scenario.Fig9a, overheadSeconds(0.25, 0.25, 0.25, 0.25)},
	{"fig09b", scenario.Fig9b, overheadSeconds(0.2, 0.5, 1.0)},
}

func prepareFigures(seed uint64, quick bool) func(*tracer) *repetition {
	opt := scenario.Options{Scale: 0.25, Seed: seed}
	if quick {
		opt.Scale = 0.03
	}
	return func(tr *tracer) *repetition {
		rep := &repetition{ops: len(figures)}
		results := make([]*scenario.Result, len(figures))
		for i, f := range figures {
			sp := tr.begin(tr.root(), "scenario."+f.name)
			results[i] = f.run(opt)
			tr.end(sp)
			rep.simSeconds += f.simSeconds(opt.Scale)
			if len(results[i].Series) == 0 && len(results[i].Curves) == 0 {
				rep.failf(1, "%s produced no data", f.name)
			}
		}
		if !quick {
			checkAttackDirection(rep, results[0], results[1], 200*opt.Scale)
		}
		rep.output = mustJSON(results)
		return rep
	}
}

// checkAttackDirection asserts the paper's headline on the two attack
// figures: under FLID-DL the inflating receiver F1 ends above the honest F2
// (Figure 1), under FLID-DS the same attack gains nothing (Figure 7).
func checkAttackDirection(rep *repetition, fig1, fig7 *scenario.Result, dur float64) {
	avg := func(res *scenario.Result, label string, from, to float64) float64 {
		for _, s := range res.Series {
			if s.Label == label {
				return scenario.SeriesAvg(s, from, to)
			}
		}
		return 0
	}
	mid := dur / 2
	if f1, f2 := avg(fig1, "F1", mid*1.2, dur), avg(fig1, "F2", mid*1.2, dur); f1 <= f2 {
		rep.failf(1, "fig01: attacker at %.0f Kbps is not above the honest receiver at %.0f", f1, f2)
	}
	pre, post := avg(fig7, "F1", mid*0.4, mid*0.9), avg(fig7, "F1", mid*1.2, dur)
	if post > 1.5*pre+50 {
		rep.failf(1, "fig07: attack profited under FLID-DS: %.0f -> %.0f Kbps", pre, post)
	}
}

// ---------------------------------------------------------------------------
// population and million: driver-built facade experiments

// facadeSpec is one generated experiment of the two workloads that hold
// their Experiments, and so can read the layers' counters.
type facadeSpec struct {
	label    string
	protocol string
	seed     uint64
	// delays holds one access delay per exact receiver (population).
	delays []deltasigma.Time
	// cohort, when positive, is one fluid population behind cohortDelay,
	// under Poisson churn at churn toggles/s (million).
	cohort      int
	cohortDelay deltasigma.Time
	churn       float64
	duration    deltasigma.Time
}

// sessionShare is the paper's 250 Kbps fair share: each experiment runs one
// session on a dumbbell of exactly that capacity.
const sessionShare = 250_000

func (sp facadeSpec) build() (*deltasigma.Experiment, error) {
	opts := []deltasigma.Option{
		deltasigma.WithDumbbell(sessionShare),
		deltasigma.WithProtocol(sp.protocol),
		deltasigma.WithSeed(sp.seed),
	}
	if sp.churn > 0 {
		opts = append(opts, deltasigma.WithTimeline(deltasigma.PoissonChurn{Session: 1, Rate: sp.churn, To: sp.duration}))
	}
	e, err := deltasigma.New(opts...)
	if err != nil {
		return nil, err
	}
	sess := e.AddSession(0)
	for _, d := range sp.delays {
		sess.AddReceiverDelay(d)
	}
	if sp.cohort > 0 {
		sess.AddCohortDelay(sp.cohort, sp.cohortDelay)
	}
	e.Start()
	return e, nil
}

// accessDelay draws an access-link delay in [1, 41) ms.
func accessDelay(rng *sim.RNG) deltasigma.Time {
	return deltasigma.Millisecond + rng.Jitter(40*deltasigma.Millisecond)
}

func preparePopulation(seed uint64, quick bool) func(*tracer) *repetition {
	sizes, dur := []int{100, 1000}, 10*deltasigma.Second
	if quick {
		sizes, dur = []int{32, 128}, 3*deltasigma.Second
	}
	rng := sim.NewRNG(seed)
	var specs []facadeSpec
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		for _, n := range sizes {
			sp := facadeSpec{
				label:    fmt.Sprintf("%s/r%d", proto, n),
				protocol: proto,
				seed:     seed + uint64(len(specs)),
				duration: dur,
			}
			for i := 0; i < n; i++ {
				sp.delays = append(sp.delays, accessDelay(rng))
			}
			specs = append(specs, sp)
		}
	}
	return func(tr *tracer) *repetition { return runFacade(specs, tr, false) }
}

func prepareMillion(seed uint64, quick bool) func(*tracer) *repetition {
	// The fluid cohort costs ~0.25 ms of host time per virtual second, so
	// the duration is long: four experiments make a repetition of ~1.5 s.
	dur := 1600 * deltasigma.Second
	if quick {
		dur = 30 * deltasigma.Second
	}
	rng := sim.NewRNG(seed)
	var specs []facadeSpec
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		for _, churn := range []float64{0, 50} {
			specs = append(specs, facadeSpec{
				label:       fmt.Sprintf("%s/churn%g", proto, churn),
				protocol:    proto,
				seed:        seed + uint64(len(specs)),
				cohort:      1_000_000,
				cohortDelay: accessDelay(rng),
				churn:       churn,
				duration:    dur,
			})
		}
	}
	return func(tr *tracer) *repetition { return runFacade(specs, tr, true) }
}

// drainGrace is the virtual time the post-repetition audit lets the
// network drain for.
const drainGrace = 10 * deltasigma.Second

// runFacade builds, runs and snapshots every spec. A traced repetition
// advances one virtual second at a time, so each second is a span, and reads
// the layers' counters from the Experiments it holds.
func runFacade(specs []facadeSpec, tr *tracer, wantCohortThroughput bool) *repetition {
	rep := &repetition{ops: len(specs)}
	if tr != nil {
		rep.counts = map[string]float64{}
	}
	exps := make([]*deltasigma.Experiment, 0, len(specs))
	var out []byte
	for _, sp := range specs {
		parent := tr.begin(tr.root(), "experiment."+sp.label)
		b := tr.begin(parent, "facade.build")
		e, err := sp.build()
		tr.end(b)
		if err != nil {
			rep.failf(1, "%s: build: %v", sp.label, err)
			tr.end(parent)
			continue
		}
		exps = append(exps, e)

		adv := tr.begin(parent, "facade.advance")
		if tr == nil {
			e.Advance(sp.duration)
		} else {
			for t := deltasigma.Second; t < sp.duration+deltasigma.Second; t += deltasigma.Second {
				s := tr.begin(adv, "facade.sim_second")
				e.Advance(min(t, sp.duration))
				tr.end(s)
			}
		}
		tr.end(adv)
		rep.simSeconds += sp.duration.Sec()

		r := tr.begin(parent, "facade.result")
		res := e.Run(sp.duration)
		js := mustJSON(res)
		tr.end(r)
		out = append(out, js...)
		tr.end(parent)

		if wantCohortThroughput && (len(res.Cohorts) != 1 || res.Cohorts[0].AvgKbps <= 0) {
			rep.failf(1, "%s: the cohort received no throughput", sp.label)
		}
		if tr != nil {
			readCounters(rep.counts, sp.label, e, tr.duration(adv))
		}
	}
	rep.output = out
	rep.audit = func() []failure {
		var fails []failure
		for i, e := range exps {
			if v := e.DrainAndAudit(drainGrace); len(v) != 0 {
				fails = append(fails, failure{what: fmt.Sprintf("%s: drain audit: %v", specs[i].label, v[0]), ops: 1})
			}
		}
		return fails
	}
	return rep
}

// readCounters adds one experiment's layer counters to the repetition's
// totals, plus its own events and advance time under its label so
// ns-per-event can be compared across population sizes.
func readCounters(c map[string]float64, label string, e *deltasigma.Experiment, advance float64) {
	events := float64(e.Topo.Scheduler().Fired())
	c["sim.events"] += events
	c["sim.advance_s"] += advance
	c["sim.events:"+label] = events
	c["sim.advance_s:"+label] = advance
	for _, l := range e.Topo.Network().Links() {
		c["netsim.packets"] += float64(l.Arrived)
		c["netsim.delivered"] += float64(l.Delivered)
		c["netsim.drops"] += float64(l.Queue.Dropped + l.DroppedDown)
	}
	pool := e.Pool()
	c["packet.issued"] += float64(pool.Issued)
	c["packet.recycled"] += float64(pool.Recycled)
	absorbed, forwarded := e.FeedbackStats()
	c["mcast.feedback_absorbed"] += float64(absorbed)
	c["mcast.feedback_forwarded"] += float64(forwarded)
}

// ---------------------------------------------------------------------------
// shootout

func prepareShootout(seed uint64, quick bool) func(*tracer) *repetition {
	opt := scenario.Options{Scale: 1, Seed: seed}
	if quick {
		opt.Scale = 0.1
	}
	return func(tr *tracer) *repetition {
		rep := &repetition{}
		sp := tr.begin(tr.root(), "sweep.run")
		res, err := scenario.RunCampaign("shootout", opt, campaignWorkers)
		tr.end(sp)
		if err != nil {
			rep.ops = 1
			rep.failf(1, "shootout: %v", err)
			return rep
		}
		sp = tr.begin(tr.root(), "sweep.json")
		js, err := res.JSON()
		tr.end(sp)
		rep.ops = len(res.Points)
		rep.simSeconds = res.DurationNs.Sec() * float64(len(res.Points))
		if err != nil {
			rep.failf(rep.ops, "shootout: JSON: %v", err)
		}
		checkShootout(rep, res)
		rep.output = js
		return rep
	}
}

// checkShootout is TestShootoutGolden's structure check: only attackerless
// protocols may fail, each with the typed no-attacker reason, and every
// protocol that has an attacker must post a suppression reading.
func checkShootout(rep *repetition, res *deltasigma.CampaignResult) {
	suppressed := map[string]bool{}
	perProtocol := map[string]int{}
	for _, p := range res.Points {
		name := p.Point.Protocol
		perProtocol[name]++
		hasAtk := deltasigma.ProtocolHasAttacker(name)
		switch {
		case !hasAtk && p.Error == "":
			rep.failf(1, "point %s: attackerless protocol ran an attacker point without error", p.Point)
		case !hasAtk && !strings.Contains(p.Error, "no inflated-subscription attacker"):
			rep.failf(1, "point %s: error %q is not the typed no-attacker reason", p.Point, p.Error)
		case hasAtk && p.Error != "":
			rep.failf(1, "point %s failed: %s", p.Point, p.Error)
		case hasAtk && p.Suppression > 0:
			suppressed[name] = true
		}
	}
	for _, name := range deltasigma.Protocols() {
		if deltasigma.ProtocolHasAttacker(name) && !suppressed[name] {
			rep.failf(perProtocol[name], "protocol %s posted no suppression reading", name)
		}
	}
}

// ---------------------------------------------------------------------------
// search

// searchInput is the generated input of the search workload: the fuzz
// campaign's first seed and size, and the hunt's configuration.
type searchInput struct {
	fuzzStart uint64
	fuzzN     int
	hunt      fuzzing.HuntConfig
}

func prepareSearch(seed uint64, quick bool) func(*tracer) *repetition {
	// The hunt's seed is fixed. An elitist search costs what its winning
	// lineage costs: over ten scattered seeds one hunt allocated between
	// 1.8 M and 7.8 M times, a spread no regression bound can sit inside.
	// So -seed moves the fuzz campaign (200 independent scenarios, whose
	// summed cost moves by a few percent) and the hunt is the same search
	// on every seed.
	in := searchInput{
		fuzzStart: seed,
		fuzzN:     200,
		hunt:      fuzzing.HuntConfig{Gens: 8, Pop: 24, Seed: defaultSeed, Workers: campaignWorkers, ShrinkTop: 1, ShrinkBudget: 30},
	}
	if quick {
		in.fuzzN = 6
		in.hunt.Gens, in.hunt.Pop, in.hunt.ShrinkBudget = 2, 4, 3
	}
	// Keep every distinct scenario in the report, so the driver can count
	// the virtual time the hunt advanced; ranking is unaffected.
	in.hunt.Keep = in.hunt.Gens * in.hunt.Pop
	// The fuzz specs are a pure function of the seed, so the virtual time
	// they cover is counted here, once; the repetition generates them
	// again itself, as `dsim fuzz` does.
	var fuzzSim float64
	for i := 0; i < in.fuzzN; i++ {
		fuzzSim += (fuzzing.Generate(in.fuzzStart+uint64(i)).Duration() + fuzzing.DrainGrace).Sec()
	}
	return func(tr *tracer) *repetition {
		rep := &repetition{simSeconds: fuzzSim}
		outs := runFuzz(in, tr)
		report := runHunt(in.hunt, tr)
		rep.ops = len(outs) + report.Evaluated
		for _, o := range outs {
			if !o.Pass {
				rep.failf(1, "fuzz seed %d failed: %s %v", o.Seed, o.Err, o.Violations)
			}
		}
		if !quick && report.Best() <= 1 {
			rep.failf(report.Evaluated, "hunt found no scenario with attacker advantage above 1 (best %.3f)", report.Best())
		}
		for _, sc := range report.Scenarios {
			rep.simSeconds += (sc.Spec.Duration() + fuzzing.DrainGrace).Sec()
		}
		if tr != nil {
			rep.counts = map[string]float64{"fuzzing.hunt_gens": float64(len(report.GenBest))}
		}
		report.Config = fuzzing.HuntConfig{}
		rep.output = mustJSON(struct {
			Fuzz []fuzzing.Summary
			Hunt fuzzing.HuntReport
		}{fuzzing.Summarize(outs), report})
		return rep
	}
}

// runFuzz is fuzzing.Campaign. Traced, it calls one level down — Generate
// and Run under campaign.Run, exactly what Campaign does — so generation and
// execution are separate spans.
func runFuzz(in searchInput, tr *tracer) []fuzzing.Outcome {
	sp := tr.begin(tr.root(), "fuzzing.campaign")
	defer tr.end(sp)
	if tr == nil {
		return fuzzing.Campaign(in.fuzzStart, in.fuzzN, campaignWorkers)
	}
	outs := make([]fuzzing.Outcome, in.fuzzN)
	pools := make([]*deltasigma.PacketPool, campaign.EffectiveWorkers(in.fuzzN, campaignWorkers))
	for i := range pools {
		pools[i] = &deltasigma.PacketPool{}
	}
	errs := campaign.Run(in.fuzzN, campaignWorkers, func(w, i int) error {
		g := tr.begin(sp, "fuzzing.generate")
		spec := fuzzing.Generate(in.fuzzStart + uint64(i))
		tr.end(g)
		r := tr.begin(sp, "fuzzing.run")
		outs[i] = fuzzing.Run(spec, pools[w])
		tr.end(r)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			outs[i] = fuzzing.Outcome{Seed: in.fuzzStart + uint64(i), Err: err.Error()}
		}
	}
	return outs
}

// runHunt is fuzzing.Hunt. Traced, the search loop and the shrink of the
// top scenario are separate calls — Hunt with shrinking off, then ShrinkHunt
// on its winner, which is what Hunt does internally — so each is a span.
func runHunt(cfg fuzzing.HuntConfig, tr *tracer) fuzzing.HuntReport {
	if tr == nil {
		return fuzzing.Hunt(cfg)
	}
	search := cfg
	search.ShrinkTop = -1
	sp := tr.begin(tr.root(), "fuzzing.hunt")
	report := fuzzing.Hunt(search)
	tr.end(sp)
	if len(report.Scenarios) > 0 && report.Scenarios[0].Fitness > 0 {
		sp = tr.begin(tr.root(), "fuzzing.shrink")
		shrunk, ev := fuzzing.ShrinkHunt(report.Scenarios[0].Spec, cfg.ShrinkBudget)
		tr.end(sp)
		report.Scenarios[0].Shrunk, report.Scenarios[0].ShrunkEval = &shrunk, &ev
	}
	return report
}

func mustJSON(v any) []byte {
	js, err := json.Marshal(v)
	if err != nil {
		// Every value marshalled here is a plain result struct; failing
		// to encode one is a bug in the driver, not an input condition.
		panic(fmt.Sprintf("bench: marshal %T: %v", v, err))
	}
	return js
}
