package fuzzing

import (
	"deltasigma"
	"deltasigma/internal/sim"
)

// Generation menus. Capacities stay modest so a corpus of hundreds of
// scenarios runs in seconds; durations stay long enough for slot clocks,
// graft latency and attack convergence to all play out.
var (
	genProtocols = []string{
		"flid-dl", "flid-ds", "flid-ds", // weight the paper's headline variant
		"flid-ds-replicated", "flid-ds-threshold",
		"mfcc", "dsc", "abr-cf", // the competitor suite fuzzes too
	}
	genCaps = []int64{250_000, 400_000, 600_000, 800_000, 1_000_000, 1_500_000}
	// genCohorts is the aggregated-population menu: the fluid model's cost
	// is count-independent, so large memberships are as cheap as small ones.
	genCohorts = []int{10, 100, 1_000, 25_000, 500_000}
)

// Oracle calibration: the suppression bound allows this factor over the
// honest median plus an absolute floor, and the measurement window opens
// this long after attack onset (SIGMA needs a few slot cycles to penalize
// the guessing attacker and the honest receivers a few more to re-climb).
const (
	oracleConverge  = 5.0  // seconds after onset before the window opens
	oracleMinWindow = 3.0  // seconds of measurement the window must keep
	oracleFactor    = 1.25 // slack over the honest median
	oracleFloorKbps = 30.0 // absolute grace floor
)

// Generate derives one random-but-valid scenario from a fuzz seed. The
// spec is a pure function of the seed: same seed, same spec, field for
// field — which is what makes campaign summaries worker-count-independent
// and repro files self-contained.
func Generate(seed uint64) Spec {
	rng := sim.NewRNG(seed)
	sp := Spec{
		Seed:        seed,
		Protocol:    genProtocols[rng.IntN(len(genProtocols))],
		DurationSec: float64(8 + rng.IntN(7)), // 8..14 s
	}

	// Topology: one of the three families, sized from the capacity menu.
	switch rng.IntN(3) {
	case 0:
		sp.Topology = TopoSpec{Kind: "dumbbell", CapacitiesBps: []int64{genCaps[rng.IntN(len(genCaps))]}}
	case 1:
		hops := 2 + rng.IntN(2)
		sp.Topology = TopoSpec{Kind: "chain", CapacitiesBps: capList(rng, hops)}
	default:
		spokes := 2 + rng.IntN(2)
		sp.Topology = TopoSpec{Kind: "star", CapacitiesBps: capList(rng, spokes)}
	}

	// Schedule: replicated senders transmit every group simultaneously, so
	// they always get the compact 6-group schedule; the cumulative variants
	// occasionally get a non-default group count.
	if sp.Protocol == "flid-ds-replicated" {
		sp.Groups = 6
	} else if rng.Float64() < 0.3 {
		sp.Groups = 5 + rng.IntN(5)
	}

	// Populations: one or two sessions, a handful of receivers, up to two
	// attackers spread across them. Schemes with no inflated-subscription
	// attack surface (ProtocolHasAttacker false) get none: Wire would
	// return their *NoAttackerError, and a generator that emitted them
	// would drown real findings in sanctioned refusals.
	nSessions := 1
	if rng.Float64() < 0.3 {
		nSessions = 2
	}
	attackBudget := rng.IntN(3) // 0..2 attackers in the whole scenario
	if !deltasigma.ProtocolHasAttacker(sp.Protocol) {
		attackBudget = 0
	}
	for s := 0; s < nSessions; s++ {
		var ss SessionSpec
		honest := 1 + rng.IntN(4)
		for i := 0; i < honest; i++ {
			rs := ReceiverSpec{}
			if rng.Float64() < 0.4 {
				rs.DelayMs = 2 + 48*rng.Float64()
			}
			if rng.Float64() < 0.15 {
				rs.StartSec = 0.5 + 1.5*rng.Float64()
			}
			ss.Receivers = append(ss.Receivers, rs)
		}
		nAtk := 0
		if attackBudget > 0 {
			nAtk = 1 + rng.IntN(attackBudget)
			attackBudget -= nAtk
		}
		for i := 0; i < nAtk; i++ {
			ss.Receivers = append(ss.Receivers, ReceiverSpec{Attacker: true})
		}
		sp.Sessions = append(sp.Sessions, ss)
	}

	// Cohorts: aggregated honest populations ride along only where the
	// protocol exposes a layered fluid aggregate for the cohort model to
	// observe — AddCohort rejects the replicated sender and the competitor
	// schemes alike, so the registry capability is the gate.
	if deltasigma.ProtocolSupportsCohorts(sp.Protocol) {
		for si := range sp.Sessions {
			if rng.Float64() < 0.3 {
				n := 1 + rng.IntN(2)
				for i := 0; i < n; i++ {
					sp.Sessions[si].Cohorts = append(sp.Sessions[si].Cohorts, genCohorts[rng.IntN(len(genCohorts))])
				}
			}
		}
		if sp.hasCohorts() && rng.Float64() < 0.4 {
			sp.NoConsolidation = true
		}
	}

	// Cross traffic.
	sp.TCP = rng.IntN(3)
	if rng.Float64() < 0.3 {
		sp.CBRFraction = 0.1 + 0.2*rng.Float64()
	}

	// Timeline. Attackers always get an onset; everything else is dice.
	dur := sp.DurationSec
	onsets := make([]float64, len(sp.Sessions)) // latest onset per session; 0 = none
	stops := make([]bool, len(sp.Sessions))
	for si, ss := range sp.Sessions {
		for ri, rs := range ss.Receivers {
			if !rs.Attacker {
				continue
			}
			at := 1 + rng.Float64()*dur/2
			sp.Events = append(sp.Events, EventSpec{Kind: EvOnset, AtSec: round3(at), Session: si + 1, Receiver: ri + 1})
			if at > onsets[si] {
				onsets[si] = at
			}
			if rng.Float64() < 0.25 && at+1 < dur-1 {
				stopAt := at + 1 + rng.Float64()*(dur-at-2)
				sp.Events = append(sp.Events, EventSpec{Kind: EvStop, AtSec: round3(stopAt), Session: si + 1, Receiver: ri + 1})
				stops[si] = true
			}
		}
	}
	churned := make([]bool, len(sp.Sessions))
	for si, ss := range sp.Sessions {
		honest := 0
		for _, rs := range ss.Receivers {
			if !rs.Attacker {
				honest++
			}
		}
		if honest == 0 && len(ss.Cohorts) == 0 {
			continue
		}
		if rng.Float64() < 0.3 {
			sp.Events = append(sp.Events, EventSpec{
				Kind: EvChurn, Session: si + 1,
				Rate:    round3(0.2 + 1.8*rng.Float64()),
				FromSec: 0.5, ToSec: round3(dur - 0.5),
			})
			churned[si] = true
		} else if honest > 0 && rng.Float64() < 0.25 {
			// A scripted leave, sometimes followed by a rejoin.
			ri := 1 + rng.IntN(honest) // honest receivers precede attackers
			leave := 1 + rng.Float64()*(dur-3)
			sp.Events = append(sp.Events, EventSpec{Kind: EvLeave, AtSec: round3(leave), Session: si + 1, Receiver: ri})
			if rng.Float64() < 0.6 {
				sp.Events = append(sp.Events, EventSpec{Kind: EvJoin, AtSec: round3(leave + 0.5 + 2*rng.Float64()), Session: si + 1, Receiver: ri})
			}
			churned[si] = true
		}
	}
	linkEvents := rng.IntN(3)
	linksTouched := linkEvents > 0
	nLinks := len(sp.Topology.CapacitiesBps)
	for i := 0; i < linkEvents; i++ {
		link := rng.IntN(nLinks)
		switch rng.IntN(4) {
		case 0:
			factor := 0.5 + 1.5*rng.Float64()
			bps := int64(factor * float64(sp.Topology.CapacitiesBps[link]))
			if bps < 100_000 {
				bps = 100_000
			}
			sp.Events = append(sp.Events, EventSpec{Kind: EvCap, AtSec: round3(1 + rng.Float64()*(dur-2)), Link: link, Bps: bps})
		case 1:
			sp.Events = append(sp.Events, EventSpec{Kind: EvDelay, AtSec: round3(1 + rng.Float64()*(dur-2)), Link: link, DelayMs: round3(2 + 48*rng.Float64())})
		case 2:
			down := 1 + rng.Float64()*(dur-3)
			up := down + 0.2 + 1.3*rng.Float64()
			sp.Events = append(sp.Events,
				EventSpec{Kind: EvDown, AtSec: round3(down), Link: link},
				EventSpec{Kind: EvUp, AtSec: round3(up), Link: link})
		default:
			period := 2 + 3*rng.Float64()
			to := dur - 0.5
			if period < to {
				sp.Events = append(sp.Events, EventSpec{Kind: EvFlap, Link: link, PeriodSec: round3(period), ToSec: round3(to)})
			}
		}
	}

	// Oracle: armed only where the paper's claim must hold unconditionally —
	// a protected variant, an attacked session with honest company that no
	// churn or scripted leave disturbs, no attacker stand-down, stable
	// links, a topology where attacker and honest receivers share a path
	// (a star round-robins receivers across spokes, so unequal spoke
	// capacities make unequal entitled shares — no claim to check), and
	// enough post-convergence runway to measure.
	if protocolProtected(sp.Protocol) && !linksTouched && sp.comparablePaths() {
		for si := range sp.Sessions {
			honest, atk := populations(sp.Sessions[si])
			if atk == 0 || honest == 0 || churned[si] || stops[si] {
				continue
			}
			// Cohorts sit behind their own private edge with default delay;
			// the oracle levels per-receiver RTTs to compare equals, which it
			// cannot do for an aggregate, so such sessions are not measured.
			if len(sp.Sessions[si].Cohorts) > 0 {
				continue
			}
			// The window opens oracleConverge after the session's LATEST
			// onset — every attacker must have had its convergence
			// allowance before measurement starts — and needs runway after
			// that; rather than discarding an otherwise eligible scenario,
			// pull late onsets early enough to fit (the generator owns the
			// scenario — an early attack is as valid as a late one).
			bound := dur - oracleConverge - oracleMinWindow
			if bound < 1 {
				continue // the run is too short for any measured attack
			}
			if onsets[si] > bound {
				for ei := range sp.Events {
					ev := &sp.Events[ei]
					if ev.Kind == EvOnset && ev.Session == si+1 && ev.AtSec > bound {
						ev.AtSec = round3(bound)
					}
				}
				onsets[si] = bound
			}
			from := onsets[si] + oracleConverge
			// The oracle compares equals: level the session's RTTs and joins.
			for ri := range sp.Sessions[si].Receivers {
				sp.Sessions[si].Receivers[ri].DelayMs = 0
				sp.Sessions[si].Receivers[ri].StartSec = 0
			}
			sp.Oracle = &OracleSpec{
				Session:   si + 1,
				FromSec:   round3(from),
				Factor:    oracleFactor,
				FloorKbps: oracleFloorKbps,
			}
			break
		}
	}
	return sp
}

// hasCohorts reports whether any session carries an aggregated population.
func (sp Spec) hasCohorts() bool {
	for _, ss := range sp.Sessions {
		if len(ss.Cohorts) > 0 {
			return true
		}
	}
	return false
}

// comparablePaths reports whether every default-egress receiver sees the
// same bottleneck capacity: always true for dumbbell and chain (one shared
// path), true for a star only when its spokes are equal.
func (sp Spec) comparablePaths() bool {
	if sp.Topology.Kind != "star" {
		return true
	}
	caps := sp.Topology.CapacitiesBps
	for _, c := range caps[1:] {
		if c != caps[0] {
			return false
		}
	}
	return true
}

// capList draws n capacities from the menu.
func capList(rng *sim.RNG, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = genCaps[rng.IntN(len(genCaps))]
	}
	return out
}

// populations counts honest receivers and attackers in a session.
func populations(ss SessionSpec) (honest, attackers int) {
	for _, rs := range ss.Receivers {
		if rs.Attacker {
			attackers++
		} else {
			honest++
		}
	}
	return
}

// protocolProtected reports whether the named registered variant runs
// behind SIGMA gatekeepers.
func protocolProtected(name string) bool {
	p, ok := deltasigma.LookupProtocol(name)
	return ok && p.Protected()
}

// round3 keeps generated times human-readable in repro files (and exactly
// representable, so a spec read back from JSON replays bit-identically).
func round3(f float64) float64 { return float64(int64(f*1000)) / 1000 }
