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
	protocols := fs.String("protocols", "flid-ds", "comma-separated protocol axis")
	topologies := fs.String("topologies", "dumbbell", "comma-separated topology axis: dumbbell, chain<N> or star<N>")
	receivers := fs.String("receivers", "1", "comma-separated well-behaved receiver counts")
	attackers := fs.String("attackers", "0", "comma-separated attacker counts")
	strategies := fs.String("strategies", "", "comma-separated attacker strategy axis: classic, colluding, adaptive, forging (empty = classic)")
	cohorts := fs.String("cohorts", "", "comma-separated aggregated cohort member counts (0 = exact receivers only)")
	capacity := fs.String("capacity", "1000000", "comma-separated bottleneck bits/s axis")
	slots := fs.String("slots", "", "comma-separated slot durations in ms (empty = protocol default)")
	spreads := fs.String("spreads", "", "comma-separated access-delay spreads in ms")
	churns := fs.String("churns", "", "comma-separated Poisson churn rates in toggles/s (empty = static membership)")
	attackAts := fs.String("attackats", "", "comma-separated attacker onset times in seconds (empty = -attack)")
	flaps := fs.String("flaps", "", "comma-separated bottleneck flap periods in seconds (empty = stable links)")
	seeds := fs.String("seeds", "1", "comma-separated seed replicas")
	dur := fs.Float64("dur", 30, "simulated seconds per grid point")
	warmup := fs.Float64("warmup", 0, "seconds excluded from statistics (0 = dur/10)")
	attackAt := fs.Float64("attack", 0, "seconds until attackers inflate (0 = dur/4)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = one per CPU)")
	shards := fs.Int("shards", 0, "parallel shards inside each static grid point (0 or 1 = serial; dynamic points always run serial; results are identical)")
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
	if err := nonNegative(fs, "shards", "workers", "dur", "warmup", "attack"); err != nil {
		return err
	}

	if *list {
		for _, c := range scenario.Campaigns() {
			fmt.Fprintf(out, "%-20s %s (%d points at scale 1)\n", c.Name, c.Description, c.Build(scenario.DefaultOptions()).Size())
		}
		return nil
	}

	var sw deltasigma.Sweep
	if *camp != "" {
		c, ok := scenario.LookupCampaign(*camp)
		if !ok {
			return fmt.Errorf("unknown campaign %q (have %v)", *camp, scenario.CampaignNames())
		}
		// A canned campaign fixes its own grid; only -scale and -seeds
		// adjust it. Reject axis flags that would be silently ignored.
		for _, name := range []string{"protocols", "topologies", "receivers", "attackers", "strategies", "cohorts", "capacity", "slots", "spreads", "churns", "attackats", "flaps", "dur", "warmup", "attack"} {
			if flagWasSet(fs, name) {
				return fmt.Errorf("-%s has no effect with -campaign (canned campaigns fix their grid; use -scale and -seeds, or drop -campaign for an ad-hoc grid)", name)
			}
		}
		opt := scenario.DefaultOptions()
		opt.Scale = *scale
		sw = c.Build(opt)
		if flagWasSet(fs, "seeds") {
			seedAxis, err := parseUints(*seeds)
			if err != nil {
				return err
			}
			sw.Seeds = seedAxis // replicate the canned grid across seeds
		}
	} else {
		var err error
		if sw, err = buildSweep(sweepAxes{
			protocols: *protocols, topologies: *topologies,
			receivers: *receivers, attackers: *attackers, strategies: *strategies,
			cohorts: *cohorts, capacity: *capacity, slots: *slots, spreads: *spreads,
			churns: *churns, attackAts: *attackAts, flaps: *flaps,
			seeds: *seeds, dur: *dur, warmup: *warmup, attackAt: *attackAt,
		}); err != nil {
			return err
		}
	}

	sw.Shards = *shards
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

// sweepAxes bundles the ad-hoc grid flags.
type sweepAxes struct {
	protocols, topologies, receivers, attackers string
	strategies, cohorts, capacity, slots        string
	spreads, churns, attackAts, flaps           string
	seeds                                       string
	dur, warmup, attackAt                       float64
}

// buildSweep assembles an ad-hoc sweep from the axis flags.
func buildSweep(ax sweepAxes) (deltasigma.Sweep, error) {
	var sw deltasigma.Sweep
	sw.Name = "adhoc"
	sw.Protocols = splitList(ax.protocols)
	// Validate the protocol axis up front: a typo would otherwise surface
	// as one opaque failure per grid point instead of a usable message.
	for _, name := range sw.Protocols {
		if _, ok := deltasigma.LookupProtocol(name); !ok {
			return sw, fmt.Errorf("-protocols: unknown protocol %q (registered: %v)", name, deltasigma.Protocols())
		}
	}
	sw.Strategies = splitList(ax.strategies)
	for _, tok := range splitList(ax.topologies) {
		spec, err := parseTopologySpec(tok)
		if err != nil {
			return sw, err
		}
		sw.Topologies = append(sw.Topologies, spec)
	}
	var err error
	if sw.Receivers, err = parseInts(ax.receivers); err != nil {
		return sw, fmt.Errorf("-receivers: %w", err)
	}
	if sw.Attackers, err = parseInts(ax.attackers); err != nil {
		return sw, fmt.Errorf("-attackers: %w", err)
	}
	if sw.Cohorts, err = parseInts(ax.cohorts); err != nil {
		return sw, fmt.Errorf("-cohorts: %w", err)
	}
	caps, err := parseCaps(ax.capacity, 1_000_000)
	if err != nil {
		return sw, err
	}
	sw.Bottlenecks = caps
	if sw.Slots, err = parseMillis(ax.slots); err != nil {
		return sw, fmt.Errorf("-slots: %w", err)
	}
	if sw.DelaySpreads, err = parseMillis(ax.spreads); err != nil {
		return sw, fmt.Errorf("-spreads: %w", err)
	}
	if sw.ChurnRates, err = parseFloats(ax.churns); err != nil {
		return sw, fmt.Errorf("-churns: %w", err)
	}
	if sw.AttackAts, err = parseSeconds(ax.attackAts); err != nil {
		return sw, fmt.Errorf("-attackats: %w", err)
	}
	if sw.FlapPeriods, err = parseSeconds(ax.flaps); err != nil {
		return sw, fmt.Errorf("-flaps: %w", err)
	}
	seedAxis, err := parseUints(ax.seeds)
	if err != nil {
		return sw, fmt.Errorf("-seeds: %w", err)
	}
	sw.Seeds = seedAxis
	sw.Duration = deltasigma.Time(ax.dur * float64(deltasigma.Second))
	sw.Warmup = deltasigma.Time(ax.warmup * float64(deltasigma.Second))
	sw.AttackAt = deltasigma.Time(ax.attackAt * float64(deltasigma.Second))
	return sw, nil
}

// parseTopologySpec maps a CLI token to a TopologySpec: "dumbbell",
// "chain<N>" or "star<N>".
func parseTopologySpec(tok string) (deltasigma.TopologySpec, error) {
	switch {
	case tok == "dumbbell":
		return deltasigma.DumbbellSpec(), nil
	case strings.HasPrefix(tok, "chain"):
		n, err := strconv.Atoi(tok[len("chain"):])
		if err != nil || n < 1 {
			return deltasigma.TopologySpec{}, fmt.Errorf("bad topology %q (want chain<N>)", tok)
		}
		return deltasigma.ChainSpec(n), nil
	case strings.HasPrefix(tok, "star"):
		n, err := strconv.Atoi(tok[len("star"):])
		if err != nil || n < 1 {
			return deltasigma.TopologySpec{}, fmt.Errorf("bad topology %q (want star<N>)", tok)
		}
		return deltasigma.StarSpec(n), nil
	default:
		return deltasigma.TopologySpec{}, fmt.Errorf("unknown topology %q (dumbbell, chain<N> or star<N>)", tok)
	}
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

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, p := range splitList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of non-negative floats.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseDurations parses a comma-separated list of durations expressed in
// the given unit ("seconds"/"milliseconds" names the unit in errors).
func parseDurations(s, what string, unit deltasigma.Time) ([]deltasigma.Time, error) {
	var out []deltasigma.Time
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad duration %q (%s)", p, what)
		}
		out = append(out, deltasigma.Time(v*float64(unit)))
	}
	return out, nil
}

// parseSeconds parses a comma-separated list of second durations.
func parseSeconds(s string) ([]deltasigma.Time, error) {
	return parseDurations(s, "seconds", deltasigma.Second)
}

// parseMillis parses a comma-separated list of millisecond durations.
func parseMillis(s string) ([]deltasigma.Time, error) {
	return parseDurations(s, "milliseconds", deltasigma.Millisecond)
}
