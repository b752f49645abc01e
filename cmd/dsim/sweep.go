// The `dsim sweep` subcommand: run a parallel parameter-sweep campaign —
// either a canned campaign from the scenario library or an ad-hoc grid
// declared axis by axis on the command line.
package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"deltasigma"
	"deltasigma/internal/campaign"
	"deltasigma/internal/scenario"
)

func runSweep(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("dsim sweep", flag.ContinueOnError)
	camp := fs.String("campaign", "", "run a canned campaign (see -list) instead of an ad-hoc grid")
	scale := fs.Float64("scale", 1, "duration scale for canned campaigns (1 = full length)")
	axes := make([]*string, len(sweepAxisFlags))
	for i, f := range sweepAxisFlags {
		axes[i] = fs.String(f.name, f.def, f.usage)
	}
	dur := fs.Float64("dur", 30, "simulated seconds per grid point")
	warmup := fs.Float64("warmup", 0, "seconds excluded from statistics (0 = dur/10)")
	attackAt := fs.Float64("attack", 0, "seconds until attackers inflate (0 = dur/4)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit the CampaignResult as JSON")
	csvOut := fs.Bool("csv", false, "emit the CampaignResult as CSV")
	list := fs.Bool("list", false, "list canned campaigns and exit")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)
	if *dur <= 0 {
		return fmt.Errorf("-dur must be positive, got %g", *dur)
	}
	// Durations read a scale at or below 0 as full length, but every
	// canned campaign reads anything below 1 as its reduced grid, so a
	// non-positive scale would run a mix of both.
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %g", *scale)
	}
	if err := nonNegative(fs, "workers", "warmup", "attack"); err != nil {
		return err
	}

	if *list {
		for _, c := range scenario.Campaigns() {
			fmt.Fprintf(out, "%-20s %s (%d points at scale 1)\n", c.Name, c.Description, c.Build(scenario.DefaultOptions()).Size())
		}
		return nil
	}

	secs := func(s float64) deltasigma.Time { return deltasigma.Time(s * float64(deltasigma.Second)) }
	sw := deltasigma.Sweep{Name: "adhoc", Duration: secs(*dur), Warmup: secs(*warmup), AttackAt: secs(*attackAt)}
	if *camp != "" {
		c, ok := scenario.LookupCampaign(*camp)
		if !ok {
			return fmt.Errorf("unknown campaign %q (have %v)", *camp, scenario.CampaignNames())
		}
		// A canned campaign fixes its own grid; only -scale and -seeds
		// adjust it. Reject flags that would be silently ignored.
		for _, name := range []string{"dur", "warmup", "attack"} {
			if flagWasSet(fs, name) {
				return errNoCampaignEffect(name)
			}
		}
		opt := scenario.DefaultOptions()
		opt.Scale = *scale
		sw = c.Build(opt)
	} else if flagWasSet(fs, "scale") {
		return fmt.Errorf("-scale has no effect without -campaign (it shortens canned campaigns; set -dur for an ad-hoc grid)")
	}
	for i, f := range sweepAxisFlags {
		if *camp != "" {
			if !flagWasSet(fs, f.name) {
				continue
			}
			if f.name != "seeds" {
				return errNoCampaignEffect(f.name)
			}
			// -seeds replicates the canned grid across seeds.
		}
		if err := f.set(&sw, *axes[i]); err != nil {
			return err
		}
	}

	res, err := sw.Run(*workers)
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		js, err := res.JSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", js)
		return err
	case *csvOut:
		return res.WriteCSV(out)
	default:
		printSweepTable(res, *workers, out)
		return nil
	}
}

// errNoCampaignEffect rejects a flag that a canned campaign would ignore.
func errNoCampaignEffect(name string) error {
	return fmt.Errorf("-%s has no effect with -campaign (canned campaigns fix their grid; use -scale and -seeds, or drop -campaign for an ad-hoc grid)", name)
}

// sweepAxisFlag is the `dsim sweep` flag for one Sweep axis: a
// comma-separated list that set parses into the axis.
type sweepAxisFlag struct {
	name, def, usage string
	set              func(sw *deltasigma.Sweep, list string) error
}

// axisFlag makes the flag for the Sweep axis that field picks, parsing
// each list item with parse and naming the flag in any error.
func axisFlag[T any](name, def, usage string, parse func(string) (T, error), field func(*deltasigma.Sweep) *[]T) sweepAxisFlag {
	return sweepAxisFlag{name, def, usage, func(sw *deltasigma.Sweep, list string) error {
		xs, err := parseList(list, parse)
		if err != nil {
			return fmt.Errorf("-%s: %w", name, err)
		}
		*field(sw) = xs
		return nil
	}}
}

// sweepAxisFlags holds one flag per Sweep axis, in the Sweep's axis order.
var sweepAxisFlags = []sweepAxisFlag{
	axisFlag("protocols", "flid-ds", "comma-separated protocol axis",
		parseProtocol, func(sw *deltasigma.Sweep) *[]string { return &sw.Protocols }),
	axisFlag("topologies", "dumbbell", "comma-separated topology axis: dumbbell, chain<N> or star<N> (N hops, each at the -capacity value)",
		parseString, func(sw *deltasigma.Sweep) *[]string { return &sw.Topologies }),
	axisFlag("receivers", "1", "comma-separated well-behaved receiver counts",
		parseInt, func(sw *deltasigma.Sweep) *[]int { return &sw.Receivers }),
	axisFlag("attackers", "0", "comma-separated attacker counts",
		parseInt, func(sw *deltasigma.Sweep) *[]int { return &sw.Attackers }),
	axisFlag("strategies", "", "comma-separated attacker strategy axis: classic, colluding, adaptive, forging (empty = classic)",
		parseString, func(sw *deltasigma.Sweep) *[]string { return &sw.Strategies }),
	axisFlag("cohorts", "", "comma-separated aggregated cohort member counts (0 = exact receivers only)",
		parseInt, func(sw *deltasigma.Sweep) *[]int { return &sw.Cohorts }),
	axisFlag("capacity", "1000000", "comma-separated bottleneck bits/s axis",
		parseCap, func(sw *deltasigma.Sweep) *[]int64 { return &sw.Bottlenecks }),
	axisFlag("slots", "", "comma-separated slot durations in ms (empty = protocol default)",
		durationIn(deltasigma.Millisecond, "milliseconds"), func(sw *deltasigma.Sweep) *[]deltasigma.Time { return &sw.Slots }),
	axisFlag("spreads", "", "comma-separated access-delay spreads in ms",
		durationIn(deltasigma.Millisecond, "milliseconds"), func(sw *deltasigma.Sweep) *[]deltasigma.Time { return &sw.DelaySpreads }),
	axisFlag("churns", "", "comma-separated Poisson churn rates in toggles/s (empty = static membership)",
		parseRate, func(sw *deltasigma.Sweep) *[]float64 { return &sw.ChurnRates }),
	axisFlag("attackats", "", "comma-separated attacker onset times in seconds (empty = -attack)",
		durationIn(deltasigma.Second, "seconds"), func(sw *deltasigma.Sweep) *[]deltasigma.Time { return &sw.AttackAts }),
	axisFlag("flaps", "", "comma-separated bottleneck flap periods in seconds (empty = stable links)",
		durationIn(deltasigma.Second, "seconds"), func(sw *deltasigma.Sweep) *[]deltasigma.Time { return &sw.FlapPeriods }),
	axisFlag("seeds", "1", "comma-separated seed replicas",
		parseSeed, func(sw *deltasigma.Sweep) *[]uint64 { return &sw.Seeds }),
}

func printSweepTable(res *deltasigma.CampaignResult, workers int, out io.Writer) {
	if workers <= 0 {
		workers = campaign.DefaultWorkers()
	}
	name := res.Name
	if name == "" {
		name = "sweep"
	}
	fmt.Fprintf(out, "%s: %d points, %.0f simulated seconds each\n\n", name, len(res.Points), res.DurationNs.Sec())
	fmt.Fprintf(out, "%-44s %10s %10s %10s %8s %6s\n", "point", "good Kbps", "p90 Kbps", "atk Kbps", "util", "lost")
	for _, p := range res.Points {
		if p.Error != "" {
			fmt.Fprintf(out, "%-44s FAILED: %s\n", p.Point, p.Error)
			continue
		}
		fmt.Fprintf(out, "%-44s %10.1f %10.1f %10.1f %7.1f%% %6d\n",
			p.Point, p.GoodMeanKbps, p.GoodP90Kbps, p.AttackerMeanKbps, 100*p.Utilization, p.LostPackets)
	}
	fmt.Fprintf(out, "\n%d workers, %d failures, wall clock %v\n", workers, res.Failures, res.Elapsed.Round(res.Elapsed/100+1))
}

// nonNegative rejects the first of the named numeric flags that is negative;
// it would otherwise read as "unset" and quietly run a different experiment
// from the one asked for.
func nonNegative(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v, _ := strconv.ParseFloat(fs.Lookup(name).Value.String(), 64); v < 0 {
			return fmt.Errorf("-%s must be non-negative, got %g", name, v)
		}
	}
	return nil
}

// flagWasSet reports whether the named flag was set explicitly on the
// command line (as opposed to holding its default value).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseList parses every item of a comma-separated flag value, skipping
// blank items.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(list, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := parse(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseProtocol accepts a registered protocol name: a typo would otherwise
// surface as one opaque failure per grid point instead of a usable message.
func parseProtocol(s string) (string, error) {
	if _, ok := deltasigma.LookupProtocol(s); !ok {
		return "", fmt.Errorf("unknown protocol %q (registered: %v)", s, deltasigma.Protocols())
	}
	return s, nil
}

// parseString takes the item as it is; the Sweep validates it.
func parseString(s string) (string, error) { return s, nil }

func parseInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}

func parseSeed(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad seed %q", s)
	}
	return v, nil
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return v, nil
}

// durationIn makes the parser of a non-negative duration counted in unit,
// which what names in errors.
func durationIn(unit deltasigma.Time, what string) func(string) (deltasigma.Time, error) {
	return func(s string) (deltasigma.Time, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad duration %q (%s)", s, what)
		}
		return deltasigma.Time(v * float64(unit)), nil
	}
}
