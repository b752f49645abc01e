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
//
// A figure's independent experiments run side by side on the campaign
// pool, and its output does not depend on how many run at once. Each
// experiment runs on a packet pool borrowed for its lifetime and closes
// once its readings are taken, so the next experiment, of any figure,
// reuses its packets and scheduler memory; pooling never changes what a
// figure computes.
package scenario

import (
	"fmt"
	"sync"

	"deltasigma"
	"deltasigma/internal/campaign"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
)

// Paper parameters (§5.1).
const (
	FairShare   = 250_000 // bits/s per session
	PacketSize  = 576     // bytes, all data traffic
	SmoothenWin = 5       // seconds of moving average for time-series figures
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

// Figure is one figure of §5 by name, with the function that runs it.
type Figure struct {
	Name string
	Run  func(Options) *Result
}

// Figures is every figure of §5, in the order cmd/figures runs them.
var Figures = []Figure{
	{"fig1", Fig1}, {"fig7", Fig7},
	{"fig8a", Fig8a}, {"fig8b", Fig8b}, {"fig8c", Fig8c}, {"fig8d", Fig8d},
	{"fig8e", Fig8e}, {"fig8f", Fig8f}, {"fig8g", Fig8g}, {"fig8h", Fig8h},
	{"fig9a", Fig9a}, {"fig9b", Fig9b},
}

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

// fanOut runs job(0..n-1) on the campaign pool, one worker per core the
// runtime may use. Each job writes only its own slot of a result slice the
// caller preallocated, and the caller assembles the figure from the slots
// in index order, so output is the same at any width. The pool turns a
// panic into an error; fanOut re-raises the first, so misuse stays as loud
// as on one goroutine.
func fanOut(n int, job func(i int)) {
	for _, err := range campaign.Run(n, 0, func(_, i int) error { job(i); return nil }) {
		if err != nil {
			panic(err)
		}
	}
}

// bothModes is the job list of a figure that runs FLID-DL beside FLID-DS,
// by registry name.
var bothModes = []string{"flid-dl", "flid-ds"}

// lab is the figures' shared wiring helper. Since the facade redesign it
// is a thin veneer over the public experiment builder: every figure
// constructs its setup exclusively through deltasigma.New and the
// Add{Session,Receiver,Attacker,TCP,CBR} surface. A lab runs on a packet
// pool borrowed from labPools, and whoever builds it defers close, which
// hands the pool — packet freelists and the parked scheduler memory — to
// the next lab.
type lab struct {
	e *deltasigma.Experiment
}

// labPools holds the packet pools of closed labs. Get hands a pool to one
// lab at a time, so a pool never serves concurrent experiments however many
// goroutines run figures, and labs reuse the engine of earlier figures as
// well as earlier jobs of their own. The runtime may drop idle pools, so
// nothing is pinned between runs.
var labPools = sync.Pool{New: func() any { return new(deltasigma.PacketPool) }}

// newLab builds an experiment on the given network, seed and registered
// protocol.
func newLab(topology deltasigma.TopologySpec, seed uint64, proto string) *lab {
	return openLab(
		deltasigma.WithTopology(topology),
		deltasigma.WithProtocol(proto),
		deltasigma.WithSeed(seed),
	)
}

// dumbbell is the §5.1 dumbbell with the given bottleneck in bits/s.
func dumbbell(bottleneck int64) deltasigma.TopologySpec {
	return deltasigma.TopologySpec{Kind: "dumbbell", CapacitiesBps: []int64{bottleneck}}
}

// openLab builds one of a figure's experiments on a borrowed pool.
func openLab(opts ...deltasigma.Option) *lab {
	pool := labPools.Get().(*deltasigma.PacketPool)
	return &lab{e: deltasigma.MustNew(append(opts, deltasigma.WithPacketPool(pool))...)}
}

// labHook, when set, sees every lab as it closes, before the experiment
// ends; tests use it to drain and audit each experiment. Labs close on
// pool workers, so the hook must be safe for concurrent use.
var labHook func(*lab)

// close ends the lab once its readings are taken: the hook sees it, the
// experiment parks its scheduler memory in the pool, and the pool goes
// back to labPools for the next lab.
func (l *lab) close() {
	if labHook != nil {
		labHook(l)
	}
	l.e.Close()
	labPools.Put(l.e.Pool())
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
