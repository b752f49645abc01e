// Command figures regenerates every figure of the paper's evaluation (§5):
// Figures 1, 7, 8(a)-(h) and 9(a)-(b). For each it writes a gnuplot-style
// .dat file under -out and prints a summary, so EXPERIMENTS.md can record
// paper-vs-measured values.
//
//	go run ./cmd/figures            # full paper-length runs
//	go run ./cmd/figures -scale 0.3 # quicker, shortened runs
//	go run ./cmd/figures -only fig7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"deltasigma/internal/scenario"
)

func main() {
	scale := flag.Float64("scale", 1.0, "duration scale factor (1 = paper length)")
	seed := flag.Uint64("seed", 2003, "experiment seed")
	out := flag.String("out", "results", "output directory for .dat files")
	only := flag.String("only", "", "comma-separated figure names (e.g. fig1,fig9a)")
	flag.Parse()
	// Durations read a scale at or below 0 as full length, but the
	// Figure 9 axes read anything below 1 as the reduced grid, so a
	// non-positive scale would run a mix of both.
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "figures: -scale must be positive, got %g\n", *scale)
		os.Exit(2)
	}

	opt := scenario.Options{Scale: *scale, Seed: *seed}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	figs := []struct {
		name string
		run  func(scenario.Options) *scenario.Result
	}{
		{"fig1", scenario.Fig1},
		{"fig7", scenario.Fig7},
		{"fig8a", scenario.Fig8a},
		{"fig8b", scenario.Fig8b},
		{"fig8c", scenario.Fig8c},
		{"fig8d", scenario.Fig8d},
		{"fig8e", scenario.Fig8e},
		{"fig8f", scenario.Fig8f},
		{"fig8g", scenario.Fig8g},
		{"fig8h", scenario.Fig8h},
		{"fig9a", scenario.Fig9a},
		{"fig9b", scenario.Fig9b},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	for _, f := range figs {
		if len(want) > 0 && !want[f.name] {
			continue
		}
		res := f.run(opt)
		path := filepath.Join(*out, res.Name+".dat")
		if err := writeDat(path, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		summarize(res)
	}
}

func writeDat(path string, res *scenario.Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", res.Name, res.Title)
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, s := range res.Series {
		fmt.Fprintf(&b, "\n\n# series: %s\n# time(s)  rate(Kbps)\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%g %g\n", p.T, p.Kbps)
		}
	}
	for _, c := range res.Curves {
		fmt.Fprintf(&b, "\n\n# curve: %s\n# x  y\n", c.Label)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "%g %g\n", p.X, p.Y)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func summarize(res *scenario.Result) {
	fmt.Printf("== %s: %s\n", res.Name, res.Title)
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			continue
		}
		span := s.Points[len(s.Points)-1].T
		fmt.Printf("   %-12s first-half avg %7.1f Kbps, second-half avg %7.1f Kbps\n",
			s.Label,
			scenario.SeriesAvg(s, span*0.1, span*0.5),
			scenario.SeriesAvg(s, span*0.55, span))
	}
	for _, c := range res.Curves {
		if len(c.Points) == 0 {
			continue
		}
		fmt.Printf("   %-24s", c.Label)
		for _, p := range c.Points {
			fmt.Printf(" (%g, %.2f)", p.X, p.Y)
		}
		fmt.Println()
	}
	fmt.Println()
}
