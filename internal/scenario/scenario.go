// Package scenario reproduces every experiment in the paper's evaluation
// (§5): one function per figure, each returning labelled data series so
// that cmd/figures can regenerate the plots, bench/ can time them, and the
// integration tests can assert their shape.
//
// All experiments use the §5.1 settings unless a figure overrides them:
// single-bottleneck topology, 250 Kbps fair share per session, 20 ms
// bottleneck delay, 10 ms / 10 Mbps side links, buffers of two
// bandwidth-delay products, 10 groups starting at 100 Kbps growing ×1.5,
// 576-byte data packets, 500 ms FLID-DL slots and 250 ms FLID-DS slots.
//
// Every experiment is assembled through the public deltasigma facade —
// the same options API users build on — so the figures double as an
// integration test of that surface.
package scenario

import (
	"fmt"

	"deltasigma"
	"deltasigma/internal/flid"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
	"deltasigma/internal/topo"
)

// Paper parameters (§5.1).
const (
	FairShare   = 250_000 // bits/s per session
	PacketSize  = 576     // bytes, all data traffic
	SlotDL      = 500 * sim.Millisecond
	SlotDS      = 250 * sim.Millisecond
	SmoothenWin = 5 // seconds of moving average for time-series figures
)

// Options scales experiments: tests run shortened versions.
type Options struct {
	// Scale multiplies experiment durations (1 = paper-length). Values in
	// (0,1] shorten runs proportionally.
	Scale float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultOptions runs experiments at paper length.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 2003} }

func (o Options) scale(t sim.Time) sim.Time {
	if o.Scale <= 0 || o.Scale == 1 {
		return t
	}
	return sim.Time(float64(t) * o.Scale)
}

// Series is one curve of a time-series figure.
type Series struct {
	Label  string
	Points []stats.Point
}

// XY is one point of a parameter-sweep curve.
type XY struct {
	X, Y float64
}

// Curve is one curve of a parameter-sweep figure.
type Curve struct {
	Label  string
	Points []XY
}

// Result is everything a figure produced.
type Result struct {
	Name   string
	Title  string
	Series []Series
	Curves []Curve
	Notes  []string
}

// Notef appends a formatted note to the result.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// SeriesAvg averages a series' points over [from, to] seconds.
func SeriesAvg(s Series, from, to float64) float64 {
	var sum float64
	n := 0
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			sum += p.Kbps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// protoName maps a flid mode to its facade registry name.
func protoName(mode flid.Mode) string {
	if mode == flid.DS {
		return "flid-ds"
	}
	return "flid-dl"
}

// lab is the figures' shared wiring helper. Since the facade redesign it
// is a thin veneer over the public experiment builder: every figure
// constructs its setup exclusively through deltasigma.New and the
// Add{Session,Receiver,Attacker,TCP,CBR} surface.
type lab struct {
	e *deltasigma.Experiment
}

// newLab builds an experiment on a dumbbell with the given configuration
// and protocol mode.
func newLab(cfg topo.Config, mode flid.Mode) *lab {
	return &lab{e: deltasigma.MustNew(
		deltasigma.WithDumbbellConfig(cfg),
		deltasigma.WithProtocol(protoName(mode)),
		deltasigma.WithSeed(cfg.Seed),
	)}
}

// addSession creates a session with nRecv receivers at the default egress.
func (l *lab) addSession(nRecv int) *deltasigma.ExperimentSession {
	return l.e.AddSession(nRecv)
}

// addTCP creates one TCP Reno connection crossing the bottleneck and
// returns its throughput meter; the sender starts at `at`.
func (l *lab) addTCP(at sim.Time) *stats.Meter {
	return l.e.AddTCP(at).Meter()
}

// series extracts a receiver's smoothed throughput series.
func series(label string, r *deltasigma.Receiver, window int) Series {
	return Series{Label: label, Points: r.Meter().Series(window)}
}
