package scenario

import (
	"fmt"
	"strings"

	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// responsivenessRun is one curve of Figure 8(e): a single multicast session
// shares the 1 Mbps bottleneck with an 800 Kbps CBR burst between 45 s and
// 75 s (scaled).
func responsivenessRun(opt Options, proto string) Series {
	dur := opt.scale(100 * sim.Second)
	on := opt.scale(45 * sim.Second)
	off := opt.scale(75 * sim.Second)

	l := newLab(topo.PaperConfig(1_000_000, opt.Seed), proto)
	defer l.close()
	ms := l.addSession(1)
	l.e.AddCBR(800_000, 0, 0).Burst(on, off)
	l.e.Run(dur)

	return series(proto, ms.Receivers[0], SmoothenWin)
}

// Fig8e reproduces Figure 8(e): FLID-DS backs off and recovers around the
// CBR burst just like FLID-DL.
func Fig8e(opt Options) *Result {
	runs := make([]Series, len(bothModes))
	fanOut(len(runs), func(i int) { runs[i] = responsivenessRun(opt, bothModes[i]) })
	runs[0].Label, runs[1].Label = "FLID-DL", "FLID-DS"
	r := &Result{
		Name:   "fig8e",
		Title:  "Responsiveness to an 800 Kbps on-off CBR burst",
		Series: runs,
	}
	r.Notef("CBR burst between t=%.0fs and t=%.0fs", opt.scale(45*sim.Second).Sec(), opt.scale(75*sim.Second).Sec())
	return r
}

// rttRun is one curve of Figure 8(f): one session, 20 receivers whose
// round-trip times spread uniformly over 30..220 ms (bottleneck delay 5 ms),
// average throughput per receiver.
func rttRun(opt Options, proto string) Curve {
	dur := opt.scale(200 * sim.Second)
	warmup := dur / 4

	const nRecv = 20
	cfg := topo.PaperConfig(FairShare, opt.Seed)
	cfg.HopDelay = 5 * sim.Millisecond
	l := newLab(cfg, proto)
	defer l.close()

	ms := l.addSession(0)
	rtts := make([]float64, nRecv)
	for i := 0; i < nRecv; i++ {
		// RTT_i spreads 30..220 ms: RTT = 2·(10ms + 5ms + access).
		rttMs := 30.0 + float64(i)*(220.0-30.0)/float64(nRecv-1)
		rtts[i] = rttMs
		access := sim.Time((rttMs/2.0 - 15.0) * float64(sim.Millisecond))
		if access < 0 {
			access = 0
		}
		ms.AddReceiverDelay(access)
	}
	l.e.Run(dur)

	var c Curve
	c.Label = fmt.Sprintf("Average %s rates", strings.ToUpper(proto))
	for i := 0; i < nRecv; i++ {
		c.Points = append(c.Points, XY{X: rtts[i], Y: ms.Receivers[i].Meter().AvgKbps(warmup, dur)})
	}
	return c
}

// Fig8f reproduces Figure 8(f): throughput is flat across heterogeneous
// round-trip times for both FLID-DL and FLID-DS.
func Fig8f(opt Options) *Result {
	runs := make([]Curve, len(bothModes))
	fanOut(len(runs), func(i int) { runs[i] = rttRun(opt, bothModes[i]) })
	return &Result{
		Name:   "fig8f",
		Title:  "Heterogeneous round-trip times",
		Curves: runs,
	}
}

// convergenceRun is Figure 8(g)/(h): four receivers of one session join at
// 0, 10, 20 and 30 s (scaled) and converge to the same subscription.
func convergenceRun(opt Options, proto string) *Result {
	dur := opt.scale(40 * sim.Second)
	l := newLab(topo.PaperConfig(FairShare, opt.Seed), proto)
	defer l.close()
	ms := l.addSession(4)
	for i, r := range ms.Receivers {
		r.StartAt(opt.scale(sim.Time(i) * 10 * sim.Second))
	}
	l.e.Run(dur)

	name, title := "fig8g", "Subscription convergence in FLID-DL"
	if proto == "flid-ds" {
		name, title = "fig8h", "Subscription convergence in FLID-DS"
	}
	res := &Result{Name: name, Title: title}
	lv := make([]int, len(ms.Receivers))
	for i, r := range ms.Receivers {
		res.Series = append(res.Series, series(fmt.Sprintf("Receiver %d", i+1), r, 3))
		lv[i] = r.Level()
	}
	res.Notef("final levels: %v", lv)
	return res
}

// Fig8g reproduces Figure 8(g): convergence under FLID-DL.
func Fig8g(opt Options) *Result { return convergenceRun(opt, "flid-dl") }

// Fig8h reproduces Figure 8(h): convergence under FLID-DS.
func Fig8h(opt Options) *Result { return convergenceRun(opt, "flid-ds") }
