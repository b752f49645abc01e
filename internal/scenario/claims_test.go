package scenario

import (
	"fmt"
	"testing"
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
		fig   func(Options) *Result
		holds func(*Result) error
	}{
		{"fig1/inflation wins under FLID-DL", Fig1, func(r *Result) error {
			f1, f2 := labelAvg(r, "F1", mid*1.2, dur), labelAvg(r, "F2", mid*1.2, dur)
			if f1 <= f2 {
				return fmt.Errorf("attacker F1 ends at %.0f Kbps, not above the honest F2 at %.0f", f1, f2)
			}
			return nil
		}},
		{"fig7/inflation neutralised under FLID-DS", Fig7, func(r *Result) error {
			pre, post := labelAvg(r, "F1", mid*0.4, mid*0.9), labelAvg(r, "F1", mid*1.2, dur)
			if post > 1.5*pre+50 {
				return fmt.Errorf("attacker F1 profited: %.0f -> %.0f Kbps", pre, post)
			}
			return nil
		}},
	}
	for _, c := range claims {
		for _, seed := range []uint64{2003, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				if err := c.holds(c.fig(Options{Scale: scale, Seed: seed})); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
