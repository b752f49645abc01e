package scenario

import (
	"testing"

	"deltasigma/internal/stats"
)

// testOptions shrinks experiments so the suite stays fast; shapes must hold
// even at reduced scale.
func testOptions() Options { return Options{Scale: 0.35, Seed: 2003} }

func TestFig1AttackSucceedsUnderFLIDDL(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	opt := testOptions()
	res := Fig1(opt)
	if len(res.Series) != 4 {
		t.Fatalf("want 4 series, got %d", len(res.Series))
	}
	dur := 200 * opt.Scale
	mid := dur / 2
	byLabel := map[string]Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
	}
	f1Pre := SeriesAvg(byLabel["F1"], mid*0.4, mid*0.9)
	f1Post := SeriesAvg(byLabel["F1"], mid*1.2, dur)
	f2Post := SeriesAvg(byLabel["F2"], mid*1.2, dur)
	t1Post := SeriesAvg(byLabel["T1"], mid*1.2, dur)

	if f1Post < 2*f1Pre {
		t.Fatalf("attack gained too little: %.0f -> %.0f Kbps", f1Pre, f1Post)
	}
	if f1Post < 600 {
		t.Fatalf("attacker reached only %.0f Kbps of the 1 Mbps bottleneck", f1Post)
	}
	if f2Post > f1Post/2 || t1Post > f1Post/2 {
		t.Fatalf("victims not suppressed: F2=%.0f T1=%.0f vs F1=%.0f", f2Post, t1Post, f1Post)
	}
}

func TestFig7ProtectionHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	opt := testOptions()
	res := Fig7(opt)
	dur := 200 * opt.Scale
	mid := dur / 2
	byLabel := map[string]Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
	}
	f1Pre := SeriesAvg(byLabel["F1"], mid*0.4, mid*0.9)
	f1Post := SeriesAvg(byLabel["F1"], mid*1.2, dur)
	f2Post := SeriesAvg(byLabel["F2"], mid*1.2, dur)

	// The attack must not profit: F1's throughput stays within noise of its
	// pre-attack value and never exceeds a generous fair-share bound.
	if f1Post > 1.5*f1Pre+50 {
		t.Fatalf("attack profited under FLID-DS: %.0f -> %.0f Kbps", f1Pre, f1Post)
	}
	if f1Post > 400 {
		t.Fatalf("attacker at %.0f Kbps exceeds any fair reading of 250 Kbps", f1Post)
	}
	if f2Post < 50 {
		t.Fatalf("victim starved at %.0f Kbps despite protection", f2Post)
	}
}

func TestFig8aIndividualAndAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	res := Fig8a(testOptions())
	if len(res.Curves) != 2 {
		t.Fatalf("want 2 curves, got %d", len(res.Curves))
	}
	avg := res.Curves[1]
	for _, p := range avg.Points {
		if p.Y < 120 || p.Y > 420 {
			t.Fatalf("M=%.0f: average %.0f Kbps implausible for a 250 Kbps fair share", p.X, p.Y)
		}
	}
}

func TestFig8cAveragesComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	res := Fig8c(testOptions())
	dl, ds := res.Curves[0], res.Curves[1]
	if len(dl.Points) != len(ds.Points) {
		t.Fatal("sweep mismatch")
	}
	for i := range dl.Points {
		rdl, rds := dl.Points[i].Y, ds.Points[i].Y
		if rds < 0.55*rdl || rds > 1.45*rdl {
			t.Fatalf("M=%.0f: FLID-DS %.0f vs FLID-DL %.0f Kbps diverge", dl.Points[i].X, rds, rdl)
		}
	}
}

func TestFig8eResponsiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	opt := Options{Scale: 0.6, Seed: 2003}
	res := Fig8e(opt)
	on := 45 * opt.Scale
	off := 75 * opt.Scale
	dur := 100 * opt.Scale
	for _, s := range res.Series {
		before := SeriesAvg(s, on*0.3, on*0.9)
		during := SeriesAvg(s, on+3, off-1)
		after := SeriesAvg(s, off+6, dur)
		if during > 0.8*before {
			t.Fatalf("%s: no backoff during burst: %.0f -> %.0f Kbps", s.Label, before, during)
		}
		if after < 1.2*during {
			t.Fatalf("%s: no recovery after burst: %.0f -> %.0f Kbps", s.Label, during, after)
		}
	}
}

func TestFig8fRTTIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	res := Fig8f(testOptions())
	for _, c := range res.Curves {
		var ys []float64
		for _, p := range c.Points {
			ys = append(ys, p.Y)
		}
		mean := stats.Mean(ys)
		if mean < 60 {
			t.Fatalf("%s: mean %.0f Kbps too low", c.Label, mean)
		}
		// Receivers of one session behind one bottleneck share the stream:
		// the spread across RTTs must stay small.
		if sd := stats.StdDev(ys); sd > 0.35*mean {
			t.Fatalf("%s: throughput varies with RTT: mean=%.0f sd=%.0f", c.Label, mean, sd)
		}
	}
}

func TestFig8ghConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	opt := Options{Scale: 1, Seed: 2003} // short experiment anyway (40 s)
	for _, res := range []*Result{Fig8g(opt), Fig8h(opt)} {
		if len(res.Series) != 4 {
			t.Fatalf("%s: want 4 series", res.Name)
		}
		var finals []float64
		for _, s := range res.Series {
			finals = append(finals, SeriesAvg(s, 32, 40))
		}
		for i := 1; i < 4; i++ {
			if finals[i] < 60 {
				t.Fatalf("%s: receiver %d dead at end (%.0f Kbps): %v", res.Name, i+1, finals[i], finals)
			}
		}
		if j := stats.Jain(finals); j < 0.85 {
			t.Fatalf("%s: receivers did not converge, Jain=%.2f rates=%v", res.Name, j, finals)
		}
	}
}
