package scenario

import (
	"deltasigma"
	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// §5.4 overhead-experiment constants.
const (
	overheadPktBytes = 500       // s = 4000 bits of data per packet
	overheadTotal    = 4_000_000 // R: cumulative session rate
	overheadBase     = 100_000   // r: minimal group rate
	keyBits          = 16        // b
	slotNumberBits   = 8         // l
)

// overheadPoint runs a FLID-DS sender with N groups and slot duration t and
// evaluates the §5.4 overhead expressions with the observed f_g, z and h.
type overheadPoint struct {
	N          int
	T          sim.Time
	DeltaPct   float64 // O_Δ, analytic (2 − 1/m^(N−1))·b/s
	DeltaMeas  float64 // O_Δ from the measured packet counts (2P−p)b/(Rt)
	SigmaPct   float64 // O_Σ with observed f_g, z, h
	WirePct    float64 // actual announce bytes on the wire / data bytes
	SumFg      float64
	HeaderBits float64
}

func runOverheadPoint(opt Options, n int, slotDur sim.Time) overheadPoint {
	dur := opt.scale(60 * sim.Second)
	if dur < 20*slotDur {
		dur = 20 * slotDur
	}

	// Uncongested topology: overhead is a property of the sender's
	// emission, not of contention. One receiver keeps the edge on the
	// tree so announces traverse it.
	l := openLab(
		deltasigma.WithDumbbell(20_000_000),
		deltasigma.WithSeed(opt.Seed+uint64(n)+uint64(slotDur)),
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithSchedule(core.ScheduleForTotal(overheadBase, overheadTotal, n)),
		deltasigma.WithSlot(slotDur),
		deltasigma.WithPacketSize(overheadPktBytes),
	)
	defer l.close()
	sess := l.addSession(1)
	l.e.Run(dur)
	snd := sess.Sender.(*flid.Sender)

	pt := overheadPoint{N: n, T: slotDur}

	// O_Δ analytic: (2 − 1/m^(N−1)) · b/s, with m^(N−1) = R/r (Eq. 10).
	s := float64(overheadPktBytes * 8)
	ratio := float64(overheadTotal) / float64(overheadBase)
	pt.DeltaPct = (2 - 1/ratio) * keyBits / s * 100

	// O_Δ measured from actual packet counts: every packet carries a b-bit
	// component field, every packet of groups 2..N also a b-bit decrease
	// field → (2P − p)·b bits per slot against R·t data bits.
	totalPkts := float64(snd.PacketsSent)
	g1Pkts := float64(snd.PacketsPerGroup[0])
	dataBits := totalPkts * s
	if dataBits > 0 {
		pt.DeltaMeas = (2*totalPkts - g1Pkts) * keyBits / dataBits * 100
	}

	// O_Σ with the observed f_g, z (sigma.Repeat) and h (§5.4):
	//   [ (l + 32N + b(2N−1+Σf_g))·z + h ] / (R·t)
	var sumFg float64
	for g := 2; g <= n; g++ {
		sumFg += snd.ObservedFrequency(g)
	}
	pt.SumFg = sumFg
	ann := snd.Announcer()
	var h float64
	if ann.SlotsDone > 0 {
		h = float64(ann.HeaderBytes*8) / float64(ann.SlotsDone)
	}
	pt.HeaderBits = h
	tupleBits := slotNumberBits + 32*float64(n) + keyBits*(2*float64(n)-1+sumFg)
	rt := float64(overheadTotal) * slotDur.Sec()
	pt.SigmaPct = (tupleBits*sigma.Repeat + h) / rt * 100

	// Actual wire bytes (KeyTuple's WireLen counts 64-bit key fields; the
	// paper's model assumes exactly b-bit fields).
	if snd.BytesSent > 0 {
		pt.WirePct = float64(ann.BytesSent) / float64(snd.BytesSent) * 100
	}
	return pt
}

// groupSweep is the Figure 9(a) x-axis.
func groupSweep(opt Options) []int {
	if opt.Scale >= 1 {
		return []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	}
	return []int{2, 6, 10, 14}
}

// Fig9a reproduces Figure 9(a): communication overhead of DELTA and SIGMA
// versus the number of groups, at t = 250 ms.
func Fig9a(opt Options) *Result {
	ns := groupSweep(opt)
	pts := make([]overheadPoint, len(ns))
	fanOut(len(pts), func(i int) { pts[i] = runOverheadPoint(opt, ns[i], 250*sim.Millisecond) })
	res := &Result{Name: "fig9a", Title: "Overhead vs number of groups"}
	var dCur, sCur Curve
	dCur.Label, sCur.Label = "DELTA", "SIGMA"
	for i, n := range ns {
		pt := pts[i]
		dCur.Points = append(dCur.Points, XY{X: float64(n), Y: pt.DeltaPct})
		sCur.Points = append(sCur.Points, XY{X: float64(n), Y: pt.SigmaPct})
		res.Notef("N=%2d: delta=%.3f%% (measured %.3f%%), sigma=%.3f%%, Σf_g=%.2f, h=%.0f bits, wire=%.3f%%",
			n, pt.DeltaPct, pt.DeltaMeas, pt.SigmaPct, pt.SumFg, pt.HeaderBits, pt.WirePct)
	}
	res.Curves = []Curve{dCur, sCur}
	return res
}

// slotSweep is the Figure 9(b) x-axis.
func slotSweep(opt Options) []sim.Time {
	if opt.Scale >= 1 {
		out := make([]sim.Time, 0, 9)
		for ms := 200; ms <= 1000; ms += 100 {
			out = append(out, sim.Time(ms)*sim.Millisecond)
		}
		return out
	}
	return []sim.Time{200 * sim.Millisecond, 500 * sim.Millisecond, 1000 * sim.Millisecond}
}

// Fig9b reproduces Figure 9(b): overhead versus the time-slot duration, at
// N = 10.
func Fig9b(opt Options) *Result {
	ts := slotSweep(opt)
	pts := make([]overheadPoint, len(ts))
	fanOut(len(pts), func(i int) { pts[i] = runOverheadPoint(opt, 10, ts[i]) })
	res := &Result{Name: "fig9b", Title: "Overhead vs time slot duration"}
	var dCur, sCur Curve
	dCur.Label, sCur.Label = "DELTA", "SIGMA"
	for i, t := range ts {
		pt := pts[i]
		dCur.Points = append(dCur.Points, XY{X: t.Sec(), Y: pt.DeltaPct})
		sCur.Points = append(sCur.Points, XY{X: t.Sec(), Y: pt.SigmaPct})
		res.Notef("t=%.1fs: delta=%.3f%%, sigma=%.3f%%", t.Sec(), pt.DeltaPct, pt.SigmaPct)
	}
	res.Curves = []Curve{dCur, sCur}
	return res
}
