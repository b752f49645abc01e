// Command dsim runs deltasigma experiments from the command line.
//
// The default mode runs a single configurable scenario through the public
// experiment builder: any registered protocol variant on any built-in
// topology, with optional inflated-subscription attack and TCP/CBR cross
// traffic, printing per-receiver throughput over time or a JSON dump of
// the typed results.
//
//	go run ./cmd/dsim -protocol flid-dl -sessions 2 -attack 30 -dur 90
//	go run ./cmd/dsim -protocol flid-ds -sessions 2 -attack 30 -attackstop 60 -dur 90
//	go run ./cmd/dsim -protocol flid-ds -topology chain -capacity 500000,250000 -tcp 1 -dur 60
//	go run ./cmd/dsim -protocol flid-ds -sessions 2 -churn 0.5 -flap 20 -dur 120
//	go run ./cmd/dsim -protocol flid-ds-threshold -topology star -capacity 250000,500000 -sessions 1 -json
//	go run ./cmd/dsim -protocol flid-ds -sessions 1 -cohort 1000000 -dur 60
//	go run ./cmd/dsim -list
//
// Mid-run dynamics — attacker onset and stop, Poisson membership churn,
// bottleneck flapping — are scripted through the experiment timeline
// (deltasigma.WithTimeline and friends) via -attack, -attackstop, -churn
// and -flap.
//
// The `sweep` subcommand runs a whole campaign — the cartesian product of
// protocol/topology/receiver/attacker/capacity/slot/delay-spread/churn/
// attack-onset/flap/seed axes — across all cores, with deterministic
// merged output (JSON, CSV or a table) that is byte-identical for any
// -workers value:
//
//	go run ./cmd/dsim sweep -protocols flid-dl,flid-ds -receivers 1,4,16,64 -attackers 0,1,2 -dur 30
//	go run ./cmd/dsim sweep -protocols flid-ds -churns 0,0.5,2 -flaps 0,10 -dur 60
//	go run ./cmd/dsim sweep -attackers 1 -attackats 5,15,25 -dur 30
//	go run ./cmd/dsim sweep -protocols flid-ds -cohorts 10000,100000,1000000 -receivers 0 -dur 30
//	go run ./cmd/dsim sweep -campaign million -scale 0.5 -json
//	go run ./cmd/dsim sweep -campaign attacker-fraction -scale 0.5 -json
//	go run ./cmd/dsim sweep -campaign churn -workers 4 -csv
//	go run ./cmd/dsim sweep -list
//
// The `fuzz` subcommand machine-generates seeded adversarial scenarios and
// runs each one under the full invariant-audit layer; failures are shrunk
// to minimal JSON reproducers that `-repro` replays:
//
//	go run ./cmd/dsim fuzz -n 200 -seed 1 -workers 4
//	go run ./cmd/dsim fuzz -repro fuzz_repro_42.json
//
// The `hunt` subcommand is the adversarial attack optimizer: a seeded
// evolutionary search over the fuzzer's scenario space that maximizes
// attacker advantage (best attacker's throughput over the honest median),
// emitting a ranked worst-scenario corpus with shrunk repro files. Like
// every campaign it is byte-identical at any -workers value:
//
//	go run ./cmd/dsim hunt -gens 8 -pop 24 -seed 1 -workers 4
//	go run ./cmd/dsim hunt -gens 3 -pop 16 -seed 1 -out hunt-out -json
//	go run ./cmd/dsim fuzz -repro hunt-out/hunt_repro_rank1.json
//
// Every mode accepts -cpuprofile FILE and -memprofile FILE (the heap
// profile is written at exit, after a GC):
//
//	go run ./cmd/dsim -sessions 1 -cohort 1000000 -dur 600 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top -sample_index=alloc_space mem.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"deltasigma"
)

// warnOut receives advisory warnings (never the command output itself);
// tests swap it to capture warnings.
var warnOut io.Writer = os.Stderr

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "sweep":
		err = runSweep(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "fuzz":
		err = runFuzz(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "hunt":
		err = runHunt(os.Args[2:], os.Stdout)
	default:
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		// -h/-help reaches here as flag.ErrHelp under ContinueOnError; the
		// usage text has already been printed, and help is not a failure.
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "dsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("dsim", flag.ContinueOnError)
	protocol := fs.String("protocol", "flid-ds", "protocol variant (see -list)")
	topology := fs.String("topology", "dumbbell", "topology: dumbbell, chain or star")
	capacity := fs.String("capacity", "", "comma-separated bottleneck bits/s, one per link (default 250k per session)")
	sessions := fs.Int("sessions", 2, "number of multicast sessions (one receiver each)")
	cohort := fs.Int("cohort", 0, "aggregated well-behaved members added to each session as one fluid cohort (0 = none)")
	groups := fs.Int("groups", 0, "groups per session (0 = the paper's 10; flid-ds-replicated wants ~6)")
	attackAt := fs.Float64("attack", 0, "seconds until session 1's receiver inflates (0 = no attack)")
	attackStop := fs.Float64("attackstop", 0, "seconds until the attacker deflates again (0 = attack runs to the end; needs -attack)")
	churn := fs.Float64("churn", 0, "Poisson membership churn in toggles/s across each session's receivers (0 = static membership)")
	flap := fs.Float64("flap", 0, "bottleneck flap period in seconds, down a tenth of each period (0 = stable links)")
	nTCP := fs.Int("tcp", 0, "number of TCP Reno competitors")
	cbrFrac := fs.Float64("cbr", 0, "on-off CBR cross traffic at this fraction of the narrowest bottleneck (0 = none)")
	dur := fs.Float64("dur", 60, "simulated seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	shards := fs.Int("shards", -1, "parallel simulation shards: 0 = auto (one per core), 1 = serial, >1 explicit (results are identical either way)")
	jsonOut := fs.Bool("json", false, "dump the typed Result as JSON instead of the progress table")
	list := fs.Bool("list", false, "list registered protocols and exit")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)

	if *list {
		for _, name := range deltasigma.Protocols() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	if *sessions < 1 {
		return fmt.Errorf("-sessions must be at least 1, got %d", *sessions)
	}
	if err := nonNegative(fs, "cohort", "groups", "tcp", "dur", "attack", "attackstop", "churn", "flap", "cbr"); err != nil {
		return err
	}
	caps, err := parseCaps(*capacity, int64(*sessions)*250_000)
	if err != nil {
		return err
	}
	// The narrowest link bounds any flow that crosses every bottleneck
	// (exact for dumbbell and chain; conservative for star spokes).
	narrowest := caps[0]
	for _, c := range caps {
		if c < narrowest {
			narrowest = c
		}
	}

	// Mid-run dynamics are scripted through the timeline, which mutates
	// cross-shard state; dsim declines the shard request up front rather
	// than let AddEvents reject it after receivers have migrated.
	shardsRequested := flagWasSet(fs, "shards")
	if shardsRequested && *shards < 0 {
		return fmt.Errorf("-shards must be non-negative (0 = auto, 1 = serial), got %d", *shards)
	}
	dynamics := *attackAt > 0 || *churn > 0 || *flap > 0
	if shardsRequested && dynamics && *shards != 1 {
		fmt.Fprintln(warnOut, "dsim: -shards ignored: mid-run dynamics (-attack, -churn, -flap) require serial execution")
		shardsRequested = false
	}

	opts := []deltasigma.Option{
		deltasigma.WithProtocol(*protocol),
		deltasigma.WithSeed(*seed),
	}
	if shardsRequested {
		opts = append(opts, deltasigma.WithShards(*shards))
	}
	if *groups > 0 {
		opts = append(opts, deltasigma.WithSchedule(deltasigma.RateSchedule{
			Base: 100_000, Mult: 1.5, N: *groups,
		}))
	}
	switch *topology {
	case "dumbbell":
		if len(caps) != 1 {
			return fmt.Errorf("dumbbell takes exactly one -capacity, got %d", len(caps))
		}
		opts = append(opts, deltasigma.WithDumbbell(caps[0]))
	case "chain":
		opts = append(opts, deltasigma.WithChain(caps...))
	case "star":
		opts = append(opts, deltasigma.WithStar(caps...))
	default:
		return fmt.Errorf("unknown topology %q (dumbbell, chain or star)", *topology)
	}

	exp, err := deltasigma.New(opts...)
	if err != nil {
		return err
	}
	if *cohort > 0 {
		if !deltasigma.ProtocolSupportsCohorts(*protocol) {
			return fmt.Errorf("-cohort is not supported by protocol %q (no layered fluid aggregate for the cohort model to ride)", *protocol)
		}
	}

	if *attackAt > 0 && *attackAt >= *dur {
		return fmt.Errorf("-attack %gs must be inside -dur %gs", *attackAt, *dur)
	}
	if *flap > 0 && *flap >= *dur {
		return fmt.Errorf("-flap %gs must be inside -dur %gs (the first outage starts one period in)", *flap, *dur)
	}
	if *attackStop > 0 {
		if *attackAt <= 0 {
			return fmt.Errorf("-attackstop needs -attack")
		}
		if *attackStop <= *attackAt {
			return fmt.Errorf("-attackstop %gs must come after -attack %gs", *attackStop, *attackAt)
		}
		if *attackStop >= *dur {
			return fmt.Errorf("-attackstop %gs must be inside -dur %gs", *attackStop, *dur)
		}
	}
	end := deltasigma.Time(*dur * float64(deltasigma.Second))
	secs := func(s float64) deltasigma.Time { return deltasigma.Time(s * float64(deltasigma.Second)) }

	var receivers []*deltasigma.Receiver
	for i := 0; i < *sessions; i++ {
		s := exp.AddSession(0)
		if i == 0 && *attackAt > 0 {
			// The Try form surfaces the typed no-attacker refusal of
			// attackerless schemes (abr-cf) as a clean CLI error instead of
			// a panic trace.
			atk, err := s.TryAddAttacker()
			if err != nil {
				return fmt.Errorf("-attack: %w", err)
			}
			receivers = append(receivers, atk)
		} else {
			receivers = append(receivers, s.AddReceiver())
		}
		if *cohort > 0 {
			s.AddCohort(*cohort)
		}
	}
	for i := 0; i < *nTCP; i++ {
		exp.AddTCP(deltasigma.Time(i) * 100 * deltasigma.Millisecond)
	}
	if *cbrFrac > 0 {
		exp.AddCBR(int64(*cbrFrac*float64(narrowest)), 5*deltasigma.Second, 5*deltasigma.Second)
	}

	// All mid-run dynamics ride the experiment timeline.
	var events []deltasigma.TimelineEvent
	if *attackAt > 0 {
		events = append(events, deltasigma.AttackerOnset{At: secs(*attackAt), Session: 1})
		if *attackStop > 0 {
			events = append(events, deltasigma.AttackerStop{At: secs(*attackStop), Session: 1})
		}
	}
	if *churn > 0 {
		for i := 1; i <= *sessions; i++ {
			if i == 1 && *attackAt > 0 && *cohort == 0 {
				continue // session 1's only well-behaved member is the attacker
			}
			events = append(events, deltasigma.PoissonChurn{Session: i, Rate: *churn, To: end})
		}
	}
	if *flap > 0 {
		for l := range exp.Topo.Bottlenecks() {
			events = append(events, deltasigma.LinkFlap{Link: l, Period: secs(*flap), To: end})
		}
	}
	exp.AddEvents(events...)
	if shardsRequested {
		if got, migrated, reason := exp.ShardStatus(); reason != "" {
			fmt.Fprintf(warnOut, "dsim: running serial: %s\n", reason)
		} else if got > 1 && migrated < got-1 {
			fmt.Fprintf(warnOut, "dsim: -shards %d exceeds the usable cuts: %d migratable receiver host(s) fill only %d of %d receiver shards\n",
				got, migrated, migrated, got-1)
		}
	}
	if *jsonOut {
		res := exp.Run(end)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Fprintf(out, "%s on %s, %d sessions, bottleneck(s) %v bits/s\n\n",
		*protocol, *topology, *sessions, caps)

	step := deltasigma.Time(5) * deltasigma.Second
	var last deltasigma.Time
	for t := step; t <= end; t += step {
		exp.Advance(t) // step cheaply; snapshot one Result at the end
		last = t
		fmt.Fprintf(out, "t=%4.0fs", t.Sec())
		for _, r := range receivers {
			fmt.Fprintf(out, "  %s: %3.0fKbps (lvl %d)", r.Label(), r.Meter().AvgKbps(t-step, t), r.Level())
		}
		for _, c := range exp.Cohorts() {
			fmt.Fprintf(out, "  %s: %3.0fKbps/member (lvl %d, %d online)",
				c.Label(), c.Meter().AvgKbps(t-step, t)/float64(c.Members()), c.Level(), c.Online())
		}
		fmt.Fprintln(out)
	}
	if last > 0 {
		res := exp.Run(last)
		fmt.Fprintf(out, "\nbottleneck utilization %.0f%%, %d packets lost\n",
			100*res.Utilization(), res.LostPackets)
		for _, c := range res.Cross {
			fmt.Fprintf(out, "%s: %.0f Kbps average\n", c.Label, c.AvgKbps)
		}
	}
	return nil
}

// parseCaps parses the comma-separated -capacity list, defaulting to one
// bottleneck of fallback bits/s.
func parseCaps(s string, fallback int64) ([]int64, error) {
	if s == "" {
		return []int64{fallback}, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad capacity %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
