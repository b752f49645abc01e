package fuzzing

import (
	"encoding/json"
	"fmt"
	"sort"

	"deltasigma"
	"deltasigma/internal/sim"
)

// The hunt optimizer: where the fuzzer samples random-but-valid scenarios
// and checks invariants, the hunt searches the same scenario space for the
// configurations where an attacker wins. Fitness is attacker advantage —
// the best attacker's throughput over the honest median, measured over
// the suppression oracle's window — so whatever the hunt surfaces is
// exactly what the oracle would flag, with a repro spec attached.
//
// Everything is deterministic at any worker count, by the same
// construction as the fuzzer: specs are pure functions of seeds, fitness
// is a pure function of a spec, parallel evaluations are stored by index,
// and every random choice the search itself makes (parent selection,
// mutation draws) comes from one serial master RNG that is only advanced
// between generations — never inside worker code.

// Hunt calibration.
const (
	// huntSeedSalt decorrelates the hunt generator's stream from the plain
	// fuzzer's, so hunt seed k is not fuzz seed k wearing a new label.
	huntSeedSalt = 0x68756e74 // "hunt"
	// HuntShrinkSlack is the fraction of a scenario's fitness a shrunk
	// candidate must retain: the shrinker minimizes the spec under the
	// rule "still at least this share of the original advantage".
	HuntShrinkSlack = 0.9
	// DefaultHuntShrinkBudget bounds evaluation runs per shrink.
	DefaultHuntShrinkBudget = 60
	// Capacity bounds for mutated bottlenecks: the floor keeps slot clocks
	// and control exchanges viable (Generate's capacity events share it),
	// the cap bounds simulated work as the search inflates capacity
	// chasing raw attacker throughput.
	huntMinCapBps = 100_000
	huntMaxCapBps = 5_000_000
	// Duration bounds: the floor guarantees room for the latest allowed
	// onset plus convergence plus a measurable window.
	huntMinDurSec = 10.0
	huntMaxDurSec = 20.0
)

// Hunt generation menus.
var (
	huntProtocols = []string{
		"flid-ds", "flid-ds", // weight the headline variant
		"flid-ds-replicated", "flid-ds-threshold",
	}
	huntStrategies = []string{"classic", "colluding", "adaptive", "forging"}
)

// HuntConfig parameterizes a hunt. Zero fields take defaults; Workers is
// execution metadata and deliberately excluded from serialized reports,
// which must be byte-identical at any worker count.
type HuntConfig struct {
	// Gens is the number of generations (default 8).
	Gens int `json:"gens"`
	// Pop is the population per generation (default 24).
	Pop int `json:"pop"`
	// Seed drives the entire search (default 1).
	Seed uint64 `json:"seed"`
	// Workers is the evaluation pool size (0 = one per core GOMAXPROCS allows).
	Workers int `json:"-"`
	// Elite is how many top scenarios survive unchanged into the next
	// generation (default max(2, Pop/6)) — elitism is also what makes the
	// per-generation best monotone.
	Elite int `json:"elite"`
	// Keep is how many ranked scenarios the report retains (default 8).
	Keep int `json:"keep"`
	// ShrinkTop is how many top scenarios get shrunk repro specs
	// (default 2).
	ShrinkTop int `json:"shrink_top"`
	// ShrinkBudget bounds evaluation runs per shrink (default
	// DefaultHuntShrinkBudget).
	ShrinkBudget int `json:"shrink_budget"`
}

func (cfg HuntConfig) withDefaults() HuntConfig {
	if cfg.Gens <= 0 {
		cfg.Gens = 8
	}
	if cfg.Pop <= 0 {
		cfg.Pop = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Elite <= 0 {
		cfg.Elite = cfg.Pop / 6
		if cfg.Elite < 2 {
			cfg.Elite = 2
		}
	}
	if cfg.Elite >= cfg.Pop {
		cfg.Elite = cfg.Pop - 1
		if cfg.Elite < 1 {
			cfg.Elite = 1
		}
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 8
	}
	if cfg.ShrinkTop < 0 {
		cfg.ShrinkTop = 0
	} else if cfg.ShrinkTop == 0 {
		cfg.ShrinkTop = 2
	}
	if cfg.ShrinkTop > cfg.Keep {
		cfg.ShrinkTop = cfg.Keep
	}
	if cfg.ShrinkBudget <= 0 {
		cfg.ShrinkBudget = DefaultHuntShrinkBudget
	}
	return cfg
}

// HuntEval is one scenario's measured fitness.
type HuntEval struct {
	deltasigma.Advantage
	// Fitness is the advantage ratio (0 for degenerate or failed runs).
	Fitness float64 `json:"fitness"`
	// Err records a build failure or panic; such scenarios score zero.
	Err string `json:"error,omitempty"`
}

// HuntScenario is one ranked entry of the worst-known-scenarios corpus.
type HuntScenario struct {
	Rank        int      `json:"rank"`
	Fitness     float64  `json:"fitness"`
	Gen         int      `json:"gen"` // generation first evaluated
	Fingerprint string   `json:"fingerprint"`
	Eval        HuntEval `json:"eval"`
	Spec        Spec     `json:"spec"`
	// Shrunk, when present, is the minimized repro retaining at least
	// HuntShrinkSlack of the fitness, with its own measured eval.
	Shrunk     *Spec     `json:"shrunk,omitempty"`
	ShrunkEval *HuntEval `json:"shrunk_eval,omitempty"`
}

// HuntReport is a full hunt result: the ranked corpus plus the search
// trajectory. Serialized reports are byte-identical at any worker count.
type HuntReport struct {
	Config HuntConfig `json:"config"`
	// GenBest is the best fitness known after each generation; elitism
	// makes it non-decreasing.
	GenBest   []float64      `json:"gen_best"`
	Evaluated int            `json:"evaluated"` // total fitness evaluations in the search loop
	Scenarios []HuntScenario `json:"scenarios"`
}

// Best returns the top-ranked fitness (0 for an empty corpus).
func (r HuntReport) Best() float64 {
	if len(r.Scenarios) == 0 {
		return 0
	}
	return r.Scenarios[0].Fitness
}

// GenerateHunt derives one attack-shaped scenario from a seed: protected
// protocols only, session 1 always carrying both honest receivers and
// attackers with randomly drawn strategies, onset schedules for the
// non-adaptive attackers and optional disturbances for the adaptive ones
// to react to. Like Generate it is a pure function of the seed.
func GenerateHunt(seed uint64) Spec {
	rng := sim.NewRNG(seed ^ huntSeedSalt)
	sp := Spec{
		Seed:        seed,
		Protocol:    huntProtocols[rng.IntN(len(huntProtocols))],
		DurationSec: float64(10 + rng.IntN(5)), // 10..14 s
	}

	// Topology: dumbbell or chain — both give every receiver the same
	// path, so the honest median is a meaningful yardstick.
	if rng.IntN(2) == 0 {
		sp.Topology = TopoSpec{Kind: "dumbbell", CapacitiesBps: []int64{genCaps[rng.IntN(len(genCaps))]}}
	} else {
		sp.Topology = TopoSpec{Kind: "chain", CapacitiesBps: capList(rng, 2+rng.IntN(2))}
	}

	if sp.Protocol == "flid-ds-replicated" {
		sp.Groups = 6
	} else if rng.Float64() < 0.4 {
		sp.Groups = 5 + rng.IntN(5)
	}

	// Session 1: the attacked, measured session.
	var ss SessionSpec
	honest := 2 + rng.IntN(3) // 2..4
	for i := 0; i < honest; i++ {
		ss.Receivers = append(ss.Receivers, ReceiverSpec{})
	}
	nAtk := 1 + rng.IntN(2) // 1..2
	for i := 0; i < nAtk; i++ {
		ss.Receivers = append(ss.Receivers, ReceiverSpec{
			Attacker: true,
			Strategy: huntStrategies[rng.IntN(len(huntStrategies))],
		})
	}
	sp.Sessions = append(sp.Sessions, ss)

	// Occasionally a second, honest-only session competing for the path.
	if rng.Float64() < 0.25 {
		var s2 SessionSpec
		for i := 0; i < 1+rng.IntN(3); i++ {
			s2.Receivers = append(s2.Receivers, ReceiverSpec{})
		}
		sp.Sessions = append(sp.Sessions, s2)
	}

	dur := sp.DurationSec
	// Onsets for the non-adaptive attackers (repairHunt owns clamping and
	// the adaptive exemption).
	for ri, rs := range sp.Sessions[0].Receivers {
		if !rs.Attacker || rs.Strategy == "adaptive" {
			continue
		}
		sp.Events = append(sp.Events, EventSpec{
			Kind: EvOnset, AtSec: round3(1 + rng.Float64()*dur/3), Session: 1, Receiver: ri + 1,
		})
		if rng.Float64() < 0.15 {
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvStop, AtSec: round3(dur - 1 - rng.Float64()*2), Session: 1, Receiver: ri + 1,
			})
		}
	}

	// Disturbances: dice for everyone, guaranteed by repairHunt when an
	// adaptive attacker needs something to react to.
	if rng.Float64() < 0.4 {
		sp.Events = append(sp.Events, EventSpec{
			Kind: EvChurn, Session: 1,
			Rate:    round3(0.2 + 1.3*rng.Float64()),
			FromSec: 0.5, ToSec: round3(dur - 0.5),
		})
	}
	if rng.Float64() < 0.35 {
		link := rng.IntN(len(sp.Topology.CapacitiesBps))
		if rng.IntN(2) == 0 {
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvFlap, Link: link,
				PeriodSec: round3(2 + 2*rng.Float64()),
				FromSec:   0.5, ToSec: round3(dur - 0.5),
			})
		} else {
			factor := 0.6 + 0.9*rng.Float64()
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvCap, AtSec: round3(1 + rng.Float64()*(dur-3)),
				Link: link, Bps: int64(factor * float64(sp.Topology.CapacitiesBps[link])),
			})
		}
	}

	sp.TCP = rng.IntN(2)

	repairHunt(&sp)
	return sp
}

// huntAttackers lists session 1's attacker indices (0-based) and whether
// any of them is adaptive.
func huntAttackers(sp Spec) (idx []int, adaptive bool) {
	if len(sp.Sessions) == 0 {
		return nil, false
	}
	for ri, rs := range sp.Sessions[0].Receivers {
		if rs.Attacker {
			idx = append(idx, ri)
			if rs.Strategy == "adaptive" {
				adaptive = true
			}
		}
	}
	return idx, adaptive
}

// repairHunt normalizes a generated or mutated spec into a valid,
// measurable hunt scenario. It is deterministic (no randomness), so a
// mutated spec repairs identically wherever it is evaluated. The repair
// appends rather than inserts receivers, so surviving event references
// stay valid; normalize drops the events that do not resolve, and the
// hunt's own bounds clamp or drop the rest.
func repairHunt(sp *Spec) {
	// Bounds that everything later relies on.
	sp.DurationSec = round3(min(max(sp.DurationSec, huntMinDurSec), huntMaxDurSec))
	for i, c := range sp.Topology.CapacitiesBps {
		sp.Topology.CapacitiesBps[i] = min(max(c, huntMinCapBps), huntMaxCapBps)
	}
	// The rate schedule is a search dimension (an attacker at the top of a
	// taller schedule takes more), but bounded: the replicated sender
	// carries every group's cumulative rate at once, so its schedule is
	// kept short.
	if sp.Protocol == "flid-ds-replicated" {
		if sp.Groups == 0 {
			sp.Groups = 6
		}
		sp.Groups = min(max(sp.Groups, 4), 8)
	} else if sp.Groups != 0 {
		sp.Groups = min(max(sp.Groups, 5), 12)
	}

	// Session 1 must exist and carry both populations.
	if len(sp.Sessions) == 0 {
		sp.Sessions = []SessionSpec{{}}
	}
	ss := &sp.Sessions[0]
	ss.Cohorts = nil // hunt medians compare exact receivers only
	if h, _ := populations(*ss); h == 0 {
		ss.Receivers = append(ss.Receivers, ReceiverSpec{})
	}
	if _, a := populations(*ss); a == 0 {
		ss.Receivers = append(ss.Receivers, ReceiverSpec{Attacker: true, Strategy: "classic"})
	}

	// Normalize strategies: unknown strings become classic, honest
	// receivers carry none, and a lone colluder recruits a second member
	// when the session has one to recruit (one-member collusion is just a
	// worse classic attacker).
	for si := range sp.Sessions {
		colluders, firstOther := 0, -1
		for ri := range sp.Sessions[si].Receivers {
			rs := &sp.Sessions[si].Receivers[ri]
			if !rs.Attacker {
				rs.Strategy = ""
				continue
			}
			switch rs.Strategy {
			case "classic", "colluding", "adaptive", "forging":
			default:
				rs.Strategy = "classic"
			}
			if rs.Strategy == "colluding" {
				colluders++
			} else if firstOther < 0 {
				firstOther = ri
			}
		}
		if colluders == 1 && firstOther >= 0 {
			sp.Sessions[si].Receivers[firstOther].Strategy = "colluding"
		}
	}

	sp.normalize()
	dur := sp.DurationSec
	bound := onsetBound(dur) // >= 2 by the duration floor
	attackers, hasAdaptive := huntAttackers(*sp)

	// Event pass: the hunt's own scope and time bounds — normalize has
	// already dropped every event that does not resolve.
	events := sp.Events[:0]
	onsetSeen := map[int]bool{} // session-1 receiver (1-based) -> has onset
	latestOnset := 0.0
	for _, ev := range sp.Events {
		switch ev.Kind {
		case EvOnset, EvStop:
			rs, ok := receiverOf(*sp, ev.Session, ev.Receiver)
			if !ok || rs.Strategy == "adaptive" {
				continue // hunts script attackers by index; adaptive schedules are compiled
			}
			ev.AtSec = max(ev.AtSec, 1)
			if ev.Kind == EvOnset {
				if ev.AtSec > bound {
					ev.AtSec = round3(bound)
				}
				if ev.Session == 1 {
					onsetSeen[ev.Receiver] = true
					if ev.AtSec > latestOnset {
						latestOnset = ev.AtSec
					}
				}
			} else if ev.AtSec > dur-0.5 {
				ev.AtSec = round3(dur - 0.5)
			}
		case EvJoin, EvLeave:
			if ev.AtSec < 0.5 || ev.AtSec > dur-0.5 {
				continue
			}
		case EvChurn:
			if ev.Rate <= 0 {
				continue
			}
			ev.FromSec = max(ev.FromSec, 0.5)
			if ev.ToSec > dur-0.5 {
				ev.ToSec = round3(dur - 0.5)
			}
			if ev.ToSec <= ev.FromSec {
				continue
			}
		case EvCap:
			ev.Bps = min(max(ev.Bps, huntMinCapBps), huntMaxCapBps)
			if ev.AtSec < 0.5 || ev.AtSec > dur-1 {
				continue
			}
		case EvDelay:
			if ev.DelayMs < 1 || ev.DelayMs > 100 || ev.AtSec < 0.5 || ev.AtSec > dur-1 {
				continue
			}
		case EvFlap:
			ev.PeriodSec = min(max(ev.PeriodSec, 1), 5)
			ev.FromSec = max(ev.FromSec, 0.5)
			if ev.ToSec > dur-0.5 {
				ev.ToSec = round3(dur - 0.5)
			}
			if ev.ToSec-ev.FromSec <= ev.PeriodSec {
				continue // no cycle fits the window
			}
		default:
			continue // hunt specs carry no down/up events
		}
		events = append(events, ev)
	}

	// Every non-adaptive attacker in the measured session needs an onset.
	for _, ri := range attackers {
		rs := sp.Sessions[0].Receivers[ri]
		if rs.Strategy == "adaptive" || onsetSeen[ri+1] {
			continue
		}
		events = append(events, EventSpec{Kind: EvOnset, AtSec: 1, Session: 1, Receiver: ri + 1})
		if latestOnset < 1 {
			latestOnset = 1
		}
	}
	// An adaptive attacker with nothing scripted degrades to its early
	// fallback onset; give it a churn window to react to instead, so the
	// strategy stays meaningfully adaptive under mutation.
	if hasAdaptive && !hasDisturbance(events) {
		events = append(events, EventSpec{
			Kind: EvChurn, Session: 1, Rate: 0.5,
			FromSec: 0.5, ToSec: round3(dur - 0.5),
		})
	}
	sp.Events = events

	// The measurement window opens past every onset — adaptive ones
	// resolved through the same compilation the facade runs.
	from := latestOnset
	if hasAdaptive {
		if tl, err := sp.timeline(); err == nil {
			if ao := deltasigma.AdaptiveOnset(tl).Sec(); ao > from {
				from = ao
			}
		}
	}
	if from < 1 {
		from = 1
	}
	sp.armOracle(1, from)
}

// hasDisturbance reports whether any event gives an adaptive attacker a
// trigger (matching the facade's adaptiveActions compilation).
func hasDisturbance(events []EventSpec) bool {
	for _, ev := range events {
		switch ev.Kind {
		case EvChurn, EvFlap, EvCap, EvDelay, EvJoin, EvLeave, EvUp:
			return true
		}
	}
	return false
}

// EvaluateAdvantage runs one hunt spec without the audit layer and
// measures attacker advantage over the spec's oracle window. pool may be
// nil or a campaign worker's reusable pool; pooling never changes the
// measurement. Panics become zero-fitness evals, mirroring Run.
func EvaluateAdvantage(sp Spec, pool *deltasigma.PacketPool) (ev HuntEval) {
	defer func() {
		if r := recover(); r != nil {
			ev = HuntEval{Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	if sp.Oracle == nil {
		ev.Err = "hunt spec has no oracle window"
		return ev
	}
	exp, err := sp.build(pool)
	if err != nil {
		ev.Err = err.Error()
		return ev
	}
	exp.Advance(sp.Duration())
	exp.StopTraffic()
	ev.Advantage = exp.AttackerAdvantage(sp.Oracle.Session, secs(sp.Oracle.FromSec))
	ev.Fitness = ev.Ratio
	// Drain so a reused campaign pool gets its envelopes back.
	exp.Advance(exp.Now() + DrainGrace)
	exp.Close()
	return ev
}

// evalAll measures a population on the campaign worker pool, results
// stored by index — worker-count-independent like Campaign.
func evalAll(specs []Spec, workers int) []HuntEval {
	return fanOut(len(specs), workers,
		func(i int, pool *deltasigma.PacketPool) HuntEval { return EvaluateAdvantage(specs[i], pool) },
		func(_ int, err error) HuntEval { return HuntEval{Err: err.Error()} })
}

// evalUnseen measures a population like evalAll, but runs each spec
// fingerprint at most once: a spec already in seen, or earlier in pop,
// reuses that eval, since an eval is a pure function of its spec. It also
// returns every spec's fingerprint.
func evalUnseen(pop []Spec, seen map[string]scored, workers int) ([]HuntEval, []string) {
	evals := make([]HuntEval, len(pop))
	fps := make([]string, len(pop))
	first := map[string]int{} // fingerprint → index of its first unseen spec
	var fresh []Spec
	var freshAt []int
	for i, sp := range pop {
		fps[i] = specFingerprint(sp)
		if s, ok := seen[fps[i]]; ok {
			evals[i] = s.eval
		} else if _, ok := first[fps[i]]; !ok {
			first[fps[i]] = i
			fresh = append(fresh, sp)
			freshAt = append(freshAt, i)
		}
	}
	for j, ev := range evalAll(fresh, workers) {
		evals[freshAt[j]] = ev
	}
	for i, fp := range fps {
		if j, ok := first[fp]; ok && j != i {
			evals[i] = evals[j]
		}
	}
	return evals, fps
}

// Mutate derives a child spec: one or two random moves from the mutation
// menu — onset jitter, capacity perturbation, strategy switches, attacker
// and honest population changes, disturbance edits, duration and seed
// perturbation — followed by the deterministic repair.
func Mutate(sp Spec, rng *sim.RNG) Spec {
	cand := clone(sp)
	moves := 1 + rng.IntN(2)
	for m := 0; m < moves; m++ {
		mutateOnce(&cand, rng)
	}
	repairHunt(&cand)
	return cand
}

func mutateOnce(sp *Spec, rng *sim.RNG) {
	ss := &sp.Sessions[0]
	attackers, _ := huntAttackers(*sp)
	switch rng.IntN(11) {
	case 10: // grow or shrink the rate schedule (repair clamps per protocol)
		if sp.Groups == 0 {
			sp.Groups = 10 // the layered default, now explicit and mutable
		}
		if rng.IntN(2) == 0 {
			sp.Groups++
		} else {
			sp.Groups--
		}
	case 0: // jitter an onset
		var onsets []int
		for i, ev := range sp.Events {
			if ev.Kind == EvOnset {
				onsets = append(onsets, i)
			}
		}
		if len(onsets) > 0 {
			ev := &sp.Events[onsets[rng.IntN(len(onsets))]]
			ev.AtSec = round3(ev.AtSec + (rng.Float64()-0.5)*4)
		}
	case 1: // perturb a bottleneck capacity
		link := rng.IntN(len(sp.Topology.CapacitiesBps))
		factor := 0.6 + 0.9*rng.Float64()
		sp.Topology.CapacitiesBps[link] = int64(factor * float64(sp.Topology.CapacitiesBps[link]))
	case 2: // switch an attacker's strategy
		if len(attackers) > 0 {
			ri := attackers[rng.IntN(len(attackers))]
			ss.Receivers[ri].Strategy = huntStrategies[rng.IntN(len(huntStrategies))]
		}
	case 3: // add an attacker
		if len(attackers) < 4 {
			ss.Receivers = append(ss.Receivers, ReceiverSpec{
				Attacker: true,
				Strategy: huntStrategies[rng.IntN(len(huntStrategies))],
			})
		}
	case 4: // remove the last attacker (repair re-adds one if none left)
		if len(attackers) > 1 {
			*sp = removeReceiver(*sp, 0, attackers[len(attackers)-1])
		}
	case 5: // add a disturbance
		link := rng.IntN(len(sp.Topology.CapacitiesBps))
		dur := sp.DurationSec
		switch rng.IntN(3) {
		case 0:
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvFlap, Link: link,
				PeriodSec: round3(1 + 3*rng.Float64()),
				FromSec:   0.5, ToSec: round3(dur - 0.5),
			})
		case 1:
			factor := 0.6 + 0.9*rng.Float64()
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvCap, AtSec: round3(1 + rng.Float64()*(dur-3)),
				Link: link, Bps: int64(factor * float64(sp.Topology.CapacitiesBps[link])),
			})
		default:
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvDelay, AtSec: round3(1 + rng.Float64()*(dur-3)),
				Link: link, DelayMs: round3(2 + 48*rng.Float64()),
			})
		}
	case 6: // remove a non-onset event
		var drop []int
		for i, ev := range sp.Events {
			if ev.Kind != EvOnset {
				drop = append(drop, i)
			}
		}
		if len(drop) > 0 {
			i := drop[rng.IntN(len(drop))]
			sp.Events = append(sp.Events[:i], sp.Events[i+1:]...)
		}
	case 7: // toggle churn on the measured session
		had := false
		var events []EventSpec
		for _, ev := range sp.Events {
			if ev.Kind == EvChurn && ev.Session == 1 {
				had = true
				continue
			}
			events = append(events, ev)
		}
		if had {
			sp.Events = events
		} else {
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvChurn, Session: 1,
				Rate:    round3(0.2 + 1.8*rng.Float64()),
				FromSec: 0.5, ToSec: round3(sp.DurationSec - 0.5),
			})
		}
	case 8: // grow or shrink the honest population (2..6)
		honest, _ := populations(*ss)
		if rng.IntN(2) == 0 && honest < 6 {
			ss.Receivers = append(ss.Receivers, ReceiverSpec{})
		} else if honest > 2 {
			for ri := len(ss.Receivers) - 1; ri >= 0; ri-- {
				if !ss.Receivers[ri].Attacker {
					*sp = removeReceiver(*sp, 0, ri)
					break
				}
			}
		}
	default: // perturb duration and the experiment's internal seed
		sp.DurationSec = round3(sp.DurationSec + (rng.Float64()-0.5)*4)
		if rng.IntN(2) == 0 {
			sp.Seed = rng.Uint64()
		}
	}
}

// directedChildren derives deterministic hill-climb neighbors of the
// current best scenario, pushing the dimensions that most directly raise
// attacker advantage: more bottleneck capacity (more throughput for a
// winning attacker to take), stronger strategies, earlier onsets. The
// tournament children explore; these exploit, so the search climbs even
// when random mutation rarely draws the improving move.
func directedChildren(best Spec) []Spec {
	capUp := clone(best)
	for i := range capUp.Topology.CapacitiesBps {
		capUp.Topology.CapacitiesBps[i] = int64(1.45 * float64(capUp.Topology.CapacitiesBps[i]))
	}
	repairHunt(&capUp)

	press := pressed(best)
	both := pressed(capUp)

	tall := clone(both) // taller schedule: more rate at the top to take
	if tall.Groups == 0 {
		tall.Groups = 10
	}
	tall.Groups++
	repairHunt(&tall)

	return []Spec{capUp, press, both, tall}
}

// pressed is the full-pressure variant of sp: every attacker forges, every
// onset fires at 1 s.
func pressed(sp Spec) Spec {
	press := clone(sp)
	for si := range press.Sessions {
		for ri := range press.Sessions[si].Receivers {
			if press.Sessions[si].Receivers[ri].Attacker {
				press.Sessions[si].Receivers[ri].Strategy = "forging"
			}
		}
	}
	for i := range press.Events {
		if press.Events[i].Kind == EvOnset {
			press.Events[i].AtSec = 1
		}
	}
	repairHunt(&press)
	return press
}

// specFingerprint digests a spec alone (no outcome), keying the archive.
func specFingerprint(sp Spec) string {
	js, err := json.Marshal(sp)
	if err != nil {
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	return fingerprint(js, nil)
}

// scored pairs a spec with its measured eval inside the search loop.
type scored struct {
	spec Spec
	eval HuntEval
	fp   string
	gen  int
}

// rankScored orders by fitness descending, fingerprint ascending — a
// total order independent of evaluation scheduling.
func rankScored(s []scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].eval.Fitness != s[j].eval.Fitness {
			return s[i].eval.Fitness > s[j].eval.Fitness
		}
		return s[i].fp < s[j].fp
	})
}

// Hunt runs the fitness-guided search: a seeded initial population,
// then Gens generations of elitist selection — the Elite best survive
// with cached evals — and tournament-selected, mutated children evaluated
// on the campaign pool. The returned report ranks the best distinct
// scenarios ever seen and shrinks the top ones into minimal repros.
func Hunt(cfg HuntConfig) HuntReport {
	cfg = cfg.withDefaults()
	master := sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)

	pop := make([]Spec, cfg.Pop)
	for i := range pop {
		pop[i] = GenerateHunt(cfg.Seed + uint64(i))
	}

	report := HuntReport{Config: cfg}
	seen := map[string]scored{} // best-known eval per spec fingerprint
	var elites []scored

	for gen := 0; gen < cfg.Gens; gen++ {
		evals, fps := evalUnseen(pop, seen, cfg.Workers)
		report.Evaluated += len(pop)

		gener := make([]scored, 0, len(pop)+len(elites))
		for i, sp := range pop {
			s := scored{spec: sp, eval: evals[i], fp: fps[i], gen: gen}
			if prev, ok := seen[s.fp]; !ok || s.eval.Fitness > prev.eval.Fitness {
				seen[s.fp] = s
			}
			gener = append(gener, s)
		}
		gener = append(gener, elites...)
		rankScored(gener)
		// Deduplicate by fingerprint, keeping the best-ranked instance.
		dedup := gener[:0]
		taken := map[string]bool{}
		for _, s := range gener {
			if taken[s.fp] {
				continue
			}
			taken[s.fp] = true
			dedup = append(dedup, s)
		}
		gener = dedup

		report.GenBest = append(report.GenBest, gener[0].eval.Fitness)
		if gen == cfg.Gens-1 {
			break
		}

		// Next generation: elites survive with cached evals; the rest are
		// tournament children. gener is sorted, so the better of two
		// uniform index draws is simply the smaller index.
		n := cfg.Elite
		if n > len(gener) {
			n = len(gener)
		}
		elites = append([]scored(nil), gener[:n]...)
		children := make([]Spec, 0, cfg.Pop-n)
		// Exploit first: deterministic hill-climb neighbors of the best.
		for _, c := range directedChildren(gener[0].spec) {
			if len(children) < cfg.Pop-n {
				children = append(children, c)
			}
		}
		for len(children) < cfg.Pop-n {
			i, j := master.IntN(len(gener)), master.IntN(len(gener))
			if j < i {
				i = j
			}
			childRNG := sim.NewRNG(master.Uint64())
			children = append(children, Mutate(gener[i].spec, childRNG))
		}
		pop = children
	}

	// Rank everything ever seen and keep the report's corpus.
	all := make([]scored, 0, len(seen))
	// order-insensitive: rankScored sorts by fitness, then by the fingerprint the map is keyed by
	for _, s := range seen {
		all = append(all, s)
	}
	rankScored(all)
	if len(all) > cfg.Keep {
		all = all[:cfg.Keep]
	}
	for rank, s := range all {
		sc := HuntScenario{
			Rank:        rank + 1,
			Fitness:     s.eval.Fitness,
			Gen:         s.gen,
			Fingerprint: s.fp,
			Eval:        s.eval,
			Spec:        s.spec,
		}
		if rank < cfg.ShrinkTop && s.eval.Fitness > 0 {
			shrunk, ev := ShrinkHunt(s.spec, cfg.ShrinkBudget)
			sc.Shrunk = &shrunk
			sc.ShrunkEval = &ev
		}
		report.Scenarios = append(report.Scenarios, sc)
	}
	return report
}

// RandomBaseline evaluates n random hunt scenarios (seeds seed..seed+n-1,
// the exact draws an unguided fuzzer would sample) and returns the best
// eval — the yardstick the guided search must beat. First strictly-better
// fitness wins, so the result is worker-count-independent.
func RandomBaseline(seed uint64, n, workers int) HuntEval {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = GenerateHunt(seed + uint64(i))
	}
	var best HuntEval
	for _, ev := range evalAll(specs, workers) {
		if ev.Fitness > best.Fitness {
			best = ev
		}
	}
	return best
}

// ShrinkHunt greedily minimizes a hunt scenario with Shrink's walk under
// the fitness rule: every accepted candidate must retain at least
// HuntShrinkSlack of the original advantage (where Shrink demands the same
// failure key). Candidates whose repair loses the oracle or that fail to
// build are rejected outright, and the walk neither swaps the protocol nor
// halves the duration. Returns the smallest accepted spec and its measured
// eval; budget 0 means DefaultHuntShrinkBudget.
func ShrinkHunt(spec Spec, budget int) (Spec, HuntEval) {
	if budget <= 0 {
		budget = DefaultHuntShrinkBudget
	}
	// The walk evaluates its candidates one after another, so one pool
	// serves them all, as it serves a campaign worker.
	pool := &deltasigma.PacketPool{}
	best := EvaluateAdvantage(spec, pool)
	if best.Err != "" || best.Fitness <= 0 {
		return spec, best
	}
	floor := best.Fitness * HuntShrinkSlack
	return shrinkWalk(spec, best, budget, shrinkRule[HuntEval]{
		eval:       func(sp Spec) HuntEval { return EvaluateAdvantage(sp, pool) },
		accept:     func(ev HuntEval) bool { return ev.Err == "" && ev.Fitness >= floor },
		passes:     6,
		needOracle: true,
	})
}
