package deltasigma

import (
	"sort"

	"deltasigma/internal/stats"
)

// Advantage is the attacker-advantage measurement the hunt optimizer
// maximizes: the best attacker's delivered throughput relative to the
// honest receivers' median share over the suppression oracle's window.
// A Ratio at or below ~1 means the protection held (the attacker got no
// more than an honest receiver's share); the optimizer hunts for
// scenarios pushing it above.
type Advantage struct {
	// Attacker labels the best attacker (e.g. "S1R3(attacker)"); empty
	// when the window or populations were degenerate.
	Attacker string `json:"attacker,omitempty"`
	// AttackerKbps is that attacker's average over the window.
	AttackerKbps float64 `json:"attacker_kbps"`
	// HonestMedianKbps is the honest receivers' median average.
	HonestMedianKbps float64 `json:"honest_median_kbps"`
	// Ratio is AttackerKbps over the floored honest median.
	Ratio float64 `json:"ratio"`
}

// advantageFloorKbps floors the denominator so a fully starved honest
// population (median ~0) yields a large-but-finite ratio instead of
// dividing by zero — total starvation is the strongest possible attack
// and must compare meaningfully across scenarios.
const advantageFloorKbps = 1.0

// AttackerAdvantage measures attacker advantage over [from, stop-of-
// traffic) — or [from, now) while traffic still flows — using the same
// per-session gathering as the suppression oracle. Session selects one
// session (1-based); 0 scans every session and returns the best ratio,
// first attacker winning ties. A zero Advantage (empty Attacker) means no
// session had both populations or the window was empty.
func (e *Experiment) AttackerAdvantage(session int, from Time) Advantage {
	until := e.trafficEnd()
	var best Advantage
	if from >= until {
		return best
	}
	for _, s := range e.sessions {
		if session != 0 && s.index != session {
			continue
		}
		honest, attackers := sessionRates(s, from, until)
		if len(attackers) == 0 || len(honest) == 0 {
			continue
		}
		sort.Float64s(honest)
		median := stats.PercentileSorted(honest, 0.5)
		denom := median
		if denom < advantageFloorKbps {
			denom = advantageFloorKbps
		}
		for _, r := range attackers {
			got := r.Meter().AvgKbps(from, until)
			if ratio := got / denom; best.Attacker == "" || ratio > best.Ratio {
				best = Advantage{
					Attacker:         r.Label(),
					AttackerKbps:     got,
					HonestMedianKbps: median,
					Ratio:            ratio,
				}
			}
		}
	}
	return best
}
