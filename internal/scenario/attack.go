package scenario

import (
	"deltasigma/internal/flid"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// attackExperiment is the shared body of Figures 1 and 7: receivers F1 and
// F2 from different multicast sessions share a 1 Mbps bottleneck with two
// TCP Reno receivers T1 and T2; after 100 s (scaled), F1 inflates its
// subscription.
func attackExperiment(opt Options, proto string) *Result {
	dur := opt.scale(200 * sim.Second)
	inflateAt := dur / 2

	l := newLab(topo.PaperConfig(1_000_000, opt.Seed), proto)
	defer l.close()

	// Session 1 carries the attacker F1, session 2 the victim F2.
	atk := l.addSession(0).AddAttacker()
	f2 := l.addSession(0).AddReceiver()
	t1 := l.addTCP(0)
	t2 := l.addTCP(0)

	l.e.At(inflateAt, atk.Inflate)
	l.e.Run(dur)

	res := &Result{}
	if proto == "flid-ds" {
		res.Name, res.Title = "fig7", "Protection with DELTA and SIGMA (FLID-DS)"
		res.Notef("attacker submitted %d guessed keys", atk.Unwrap().(*flid.KeyAttacker).GuessesSent)
	} else {
		res.Name, res.Title = "fig1", "Impact of inflated subscription (FLID-DL)"
	}
	res.Series = []Series{
		series("F1", atk, SmoothenWin),
		series("F2", f2, SmoothenWin),
		{Label: "T1", Points: t1.Series(SmoothenWin)},
		{Label: "T2", Points: t2.Series(SmoothenWin)},
	}
	res.Notef("inflation at t=%.0fs; fair share 250 Kbps per session", inflateAt.Sec())
	return res
}

// Fig1 reproduces Figure 1: inflated subscription under plain FLID-DL
// boosts the attacker's throughput at the expense of F2, T1 and T2.
func Fig1(opt Options) *Result { return attackExperiment(opt, "flid-dl") }

// Fig7 reproduces Figure 7: under FLID-DS the same attack changes nothing —
// DELTA and SIGMA preserve the fair allocation.
func Fig7(opt Options) *Result { return attackExperiment(opt, "flid-ds") }
