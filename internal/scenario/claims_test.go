package scenario

import (
	"fmt"
	"strings"
	"testing"

	"deltasigma"
)

// labelAvg averages the series labelled label over [from, to) seconds.
func labelAvg(res *Result, label string, from, to float64) float64 {
	for _, s := range res.Series {
		if s.Label == label {
			return SeriesAvg(s, from, to)
		}
	}
	return 0
}

// curvePoints returns the points of the curve labelled label, or nil.
func curvePoints(res *Result, label string) []XY {
	for _, c := range res.Curves {
		if c.Label == label {
			return c.Points
		}
	}
	return nil
}

// The paper's results, stated as inequalities on figure output: one row per
// claim, each checked at every seed below. A new claim is a new row.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	const scale = 0.25
	// dur is the attack figures' run length in seconds; the attacker
	// inflates at dur/2.
	const dur = 200 * scale
	const mid = dur / 2
	claims := []struct {
		name  string
		holds func(seed uint64) error
	}{
		{"fig1/inflation wins under FLID-DL", func(seed uint64) error {
			r := Fig1(Options{Scale: scale, Seed: seed})
			f1, f2 := labelAvg(r, "F1", mid*1.2, dur), labelAvg(r, "F2", mid*1.2, dur)
			if f1 <= f2 {
				return fmt.Errorf("attacker F1 ends at %.0f Kbps, not above the honest F2 at %.0f", f1, f2)
			}
			return nil
		}},
		{"fig7/inflation neutralised under FLID-DS", func(seed uint64) error {
			r := Fig7(Options{Scale: scale, Seed: seed})
			pre, post := labelAvg(r, "F1", mid*0.4, mid*0.9), labelAvg(r, "F1", mid*1.2, dur)
			if post > 1.5*pre+50 {
				return fmt.Errorf("attacker F1 profited: %.0f -> %.0f Kbps", pre, post)
			}
			return nil
		}},
		{"fig8c/DS tracks DL", func(seed uint64) error {
			// 0.9 is the transparency target DELTA+SIGMA is held to, not a
			// fit to these runs.
			r := Fig8c(Options{Scale: scale, Seed: seed})
			dl, ds := curvePoints(r, "FLID-DL average rate"), curvePoints(r, "FLID-DS average rate")
			if len(dl) == 0 || len(ds) != len(dl) {
				return fmt.Errorf("fig8c has %d FLID-DL and %d FLID-DS points", len(dl), len(ds))
			}
			for i := range dl {
				if ds[i].Y < 0.9*dl[i].Y {
					return fmt.Errorf("at %g sessions FLID-DS averages %.0f Kbps, under 0.9 x FLID-DL's %.0f", dl[i].X, ds[i].Y, dl[i].Y)
				}
			}
			return nil
		}},
		{"fig9a/overhead bounds, SIGMA rises with N", func(seed uint64) error {
			return overheadClaim(Fig9a(Options{Scale: scale, Seed: seed}), "N", +1)
		}},
		{"fig9b/overhead bounds, SIGMA falls with t", func(seed uint64) error {
			r := Fig9b(Options{Scale: scale, Seed: seed})
			if err := overheadClaim(r, "t", -1); err != nil {
				return err
			}
			delta := curvePoints(r, "DELTA")
			for _, p := range delta {
				if d := p.Y - delta[0].Y; d > 0.01 || d < -0.01 {
					return fmt.Errorf("DELTA overhead moves with t: %.3f%% at t=%gs, %.3f%% at t=%gs", delta[0].Y, delta[0].X, p.Y, p.X)
				}
			}
			return nil
		}},
		{"shootout/DELTA+SIGMA holds parity, unprotected rivals collapse", shootoutClaim},
	}
	for _, c := range claims {
		for _, seed := range []uint64{2003, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				if err := c.holds(seed); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// overheadClaim checks a Figure 9 result against §5.4: DELTA's overhead is
// "about 0.8%" (0.7–0.9 %) at every point, and SIGMA's stays "under 0.6%"
// while moving strictly in direction dir (+1 rising, −1 falling) along the
// x-axis named x.
func overheadClaim(r *Result, x string, dir float64) error {
	delta, sigma := curvePoints(r, "DELTA"), curvePoints(r, "SIGMA")
	if len(delta) < 2 || len(sigma) != len(delta) {
		return fmt.Errorf("%s has %d DELTA and %d SIGMA points", r.Name, len(delta), len(sigma))
	}
	for i, p := range delta {
		if p.Y < 0.7 || p.Y > 0.9 {
			return fmt.Errorf("DELTA overhead at %s=%g is %.3f%%, not about 0.8%%", x, p.X, p.Y)
		}
		q := sigma[i]
		if q.Y <= 0 || q.Y > 0.6 {
			return fmt.Errorf("SIGMA overhead at %s=%g is %.3f%%, not in (0, 0.6%%]", x, q.X, q.Y)
		}
		if i > 0 && (q.Y-sigma[i-1].Y)*dir <= 0 {
			return fmt.Errorf("SIGMA overhead does not move strictly with %s: %.3f%% at %g, %.3f%% at %g", x, sigma[i-1].Y, sigma[i-1].X, q.Y, q.X)
		}
	}
	return nil
}

// shootoutClaim reads the shoot-out campaign at Scale 0.2. Every DELTA+SIGMA
// variant holds classic and adaptive attackers to parity (suppression at
// least 0.49) while its honest receivers keep at least 0.9 × what flid-dl's
// honest receivers get at the same coordinates — so parity cannot come from
// crippling both sides; every unprotected protocol with an attacker loses
// to it, at every strategy (at most 0.25); and abr-cf refuses an attacker
// outright. Forging stays out of the protected rows (docs/ADVERSARIES.md).
func shootoutClaim(seed uint64) error {
	res, err := RunCampaign("shootout", Options{Scale: 0.2, Seed: seed}, 0)
	if err != nil {
		return err
	}
	// flid-dl's honest mean at each point's coordinates: the point with the
	// protocol swapped.
	dlGood := map[deltasigma.SweepPoint]float64{}
	for _, pt := range res.Points {
		if pt.Point.Protocol == "flid-dl" {
			dlGood[pt.Point] = pt.GoodMeanKbps
		}
	}
	var held, lost, refused int
	for _, pt := range res.Points {
		p := pt.Point
		proto, ok := deltasigma.LookupProtocol(p.Protocol)
		switch {
		case !ok:
			return fmt.Errorf("%s: protocol not registered", p)
		case !deltasigma.ProtocolHasAttacker(p.Protocol):
			if !strings.Contains(pt.Error, "no inflated-subscription attacker") {
				return fmt.Errorf("%s: error %q is not the no-attacker refusal", p, pt.Error)
			}
			refused++
		case pt.Error != "":
			return fmt.Errorf("%s failed: %s", p, pt.Error)
		case !proto.Protected:
			if pt.Suppression > 0.25 {
				return fmt.Errorf("%s: unprotected protocol suppressed the attacker to %.3f", p, pt.Suppression)
			}
			lost++
		case p.Strategy == string(deltasigma.StrategyClassic) || p.Strategy == string(deltasigma.StrategyAdaptive):
			if pt.Suppression < 0.49 {
				return fmt.Errorf("%s: DELTA+SIGMA variant let the attacker reach %.3f", p, pt.Suppression)
			}
			// 0.9 is the transparency target DELTA+SIGMA is held to, not a
			// fit to these runs.
			at := p
			at.Protocol = "flid-dl"
			dl, ok := dlGood[at]
			if !ok {
				return fmt.Errorf("%s: no flid-dl point at the same coordinates", p)
			}
			if pt.GoodMeanKbps < 0.9*dl {
				return fmt.Errorf("%s: honest receivers average %.0f Kbps, under 0.9 x flid-dl's %.0f", p, pt.GoodMeanKbps, dl)
			}
			held++
		}
	}
	if held == 0 || lost == 0 || refused == 0 {
		return fmt.Errorf("vacuous shoot-out: %d protected, %d unprotected and %d refused points", held, lost, refused)
	}
	return nil
}
