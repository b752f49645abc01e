// Command figures regenerates every figure of the paper's evaluation (§5):
// Figures 1, 7, 8(a)-(h) and 9(a)-(b). For each it writes a gnuplot-style
// .dat file under -out and prints a summary, so EXPERIMENTS.md can record
// paper-vs-measured values.
//
//	go run ./cmd/figures            # full paper-length runs
//	go run ./cmd/figures -scale 0.3 # quicker, shortened runs
//	go run ./cmd/figures -only fig7
//
// A bad flag, a non-positive -scale or an unknown -only name exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"deltasigma/internal/scenario"
)

// usageError is a command line the command refuses before running
// anything; it exits 2, as the flag package does.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	err := run(os.Args[1:], os.Stdout)
	// -h/-help reaches here as flag.ErrHelp; the usage text has already
	// been printed, and help is not a failure.
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "figures:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "duration scale factor (1 = paper length)")
	seed := fs.Uint64("seed", 2003, "experiment seed")
	dir := fs.String("out", "results", "output directory for .dat files")
	only := fs.String("only", "", "comma-separated figure names (e.g. fig1,fig9a)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err.Error()}
	}
	// Durations read a scale at or below 0 as full length, but the
	// Figure 9 axes read anything below 1 as the reduced grid, so a
	// non-positive scale would run a mix of both.
	if *scale <= 0 {
		return usageError{fmt.Sprintf("-scale must be positive, got %g", *scale)}
	}
	want, err := selected(*only)
	if err != nil {
		return err
	}

	opt := scenario.Options{Scale: *scale, Seed: *seed}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for _, f := range scenario.Figures {
		if len(want) > 0 && !want[f.Name] {
			continue
		}
		res := f.Run(opt)
		if err := writeDat(filepath.Join(*dir, res.Name+".dat"), res); err != nil {
			return err
		}
		summarize(out, res)
	}
	return nil
}

// selected parses -only into the set of figures to run (empty: all of
// them), refusing a name no figure has.
func selected(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	names := make([]string, len(scenario.Figures))
	for i, f := range scenario.Figures {
		names[i] = f.Name
	}
	for _, n := range strings.Split(only, ",") {
		n = strings.TrimSpace(n)
		if !slices.Contains(names, n) {
			return nil, usageError{fmt.Sprintf("-only: unknown figure %q; valid names: %s", n, strings.Join(names, ", "))}
		}
		want[n] = true
	}
	return want, nil
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

func summarize(out io.Writer, res *scenario.Result) {
	fmt.Fprintf(out, "== %s: %s\n", res.Name, res.Title)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			continue
		}
		span := s.Points[len(s.Points)-1].T
		fmt.Fprintf(out, "   %-12s first-half avg %7.1f Kbps, second-half avg %7.1f Kbps\n",
			s.Label,
			scenario.SeriesAvg(s, span*0.1, span*0.5),
			scenario.SeriesAvg(s, span*0.55, span))
	}
	for _, c := range res.Curves {
		if len(c.Points) == 0 {
			continue
		}
		fmt.Fprintf(out, "   %-24s", c.Label)
		for _, p := range c.Points {
			fmt.Fprintf(out, " (%g, %.2f)", p.X, p.Y)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
}
