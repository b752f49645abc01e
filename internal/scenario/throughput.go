package scenario

import (
	"deltasigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
	"deltasigma/internal/topo"
)

// sessionCounts is the paper's x-axis for Figure 8(a)-(d).
var sessionCounts = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18}

// sweepCounts thins the sweep for scaled-down runs.
func sweepCounts(opt Options) []int {
	if opt.Scale >= 1 {
		return sessionCounts
	}
	return []int{1, 2, 4, 8}
}

// throughputRun measures every multicast receiver's average throughput with
// M sessions of the given protocol, optionally with M TCP sessions and an
// on-off CBR session as cross traffic (Figure 8a/b/d body).
func throughputRun(opt Options, proto string, m int, cross bool) (indiv []float64) {
	dur := opt.scale(200 * sim.Second)
	warmup := dur / 10

	// Fair share of 250 Kbps per session fixes the capacity.
	nSessions := int64(m)
	if cross {
		nSessions = int64(2 * m)
	}
	capacity := FairShare * nSessions
	l := newLab(topo.PaperConfig(capacity, opt.Seed+uint64(m)*17), proto)
	defer l.close()

	sessions := make([]*deltasigma.ExperimentSession, 0, m)
	for i := 0; i < m; i++ {
		sessions = append(sessions, l.addSession(1))
	}
	if cross {
		for i := 0; i < m; i++ {
			l.addTCP(sim.Time(i) * 100 * sim.Millisecond)
		}
		// The on-off CBR session transmits at 10% of the bottleneck
		// capacity with 5-second on and off periods (§5.3).
		l.e.AddCBR(capacity/10, 5*sim.Second, 5*sim.Second)
	}
	l.e.Run(dur)

	for _, s := range sessions {
		indiv = append(indiv, s.Receivers[0].Meter().AvgKbps(warmup, dur))
	}
	return indiv
}

// throughputSweeps runs throughputRun across the session counts for every
// protocol as one job list, so no worker idles between two protocols' sweeps, and
// returns one individual-rates and one average-rate curve per protocol.
func throughputSweeps(opt Options, cross bool, protos ...string) (indiv, avg []Curve) {
	counts := sweepCounts(opt)
	rates := make([][]float64, len(protos)*len(counts)) // protocol-major
	// The pool hands out indices in order, so the list runs the largest m
	// first: the longest runs start first and a short one finishes last.
	fanOut(len(rates), func(j int) {
		k, c := j%len(protos), len(counts)-1-j/len(protos)
		rates[k*len(counts)+c] = throughputRun(opt, protos[k], counts[c], cross)
	})
	indiv, avg = make([]Curve, len(protos)), make([]Curve, len(protos))
	for k := range protos {
		for c, m := range counts {
			r := rates[k*len(counts)+c]
			for _, y := range r {
				indiv[k].Points = append(indiv[k].Points, XY{X: float64(m), Y: y})
			}
			avg[k].Points = append(avg[k].Points, XY{X: float64(m), Y: stats.Mean(r)})
		}
	}
	return indiv, avg
}

// Fig8a reproduces Figure 8(a): FLID-DL individual and average receiver
// throughput versus the number of multicast sessions, no cross traffic.
func Fig8a(opt Options) *Result {
	indiv, avg := throughputSweeps(opt, false, "flid-dl")
	indiv[0].Label, avg[0].Label = "Individual rates", "Average rate"
	return &Result{
		Name:   "fig8a",
		Title:  "Throughput for FLID-DL without cross traffic",
		Curves: []Curve{indiv[0], avg[0]},
	}
}

// Fig8b reproduces Figure 8(b): the same for FLID-DS.
func Fig8b(opt Options) *Result {
	indiv, avg := throughputSweeps(opt, false, "flid-ds")
	indiv[0].Label, avg[0].Label = "Individual rates", "Average rate"
	return &Result{
		Name:   "fig8b",
		Title:  "Throughput for FLID-DS without cross traffic",
		Curves: []Curve{indiv[0], avg[0]},
	}
}

// Fig8c reproduces Figure 8(c): FLID-DL and FLID-DS average throughput
// without cross traffic coincide.
func Fig8c(opt Options) *Result {
	_, avg := throughputSweeps(opt, false, bothModes...)
	avg[0].Label, avg[1].Label = "FLID-DL average rate", "FLID-DS average rate"
	return &Result{
		Name:   "fig8c",
		Title:  "Average throughput without cross traffic",
		Curves: avg,
	}
}

// Fig8d reproduces Figure 8(d): averages with TCP and on-off CBR cross
// traffic remain comparable between FLID-DL and FLID-DS.
func Fig8d(opt Options) *Result {
	_, avg := throughputSweeps(opt, true, bothModes...)
	avg[0].Label, avg[1].Label = "FLID-DL average rate", "FLID-DS average rate"
	r := &Result{
		Name:   "fig8d",
		Title:  "Average throughput with cross traffic",
		Curves: avg,
	}
	r.Notef("cross traffic: one TCP per multicast session plus on-off CBR at 10%% capacity, 5 s periods")
	return r
}
