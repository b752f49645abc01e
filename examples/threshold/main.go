// Threshold-protocol demo: the Shamir-sharing DELTA instantiation (§3.1.2).
// An RLM/WEBRC-style receiver is congested only when its loss rate exceeds
// the per-level tolerance; its level key reconstructs exactly when it
// caught enough Shamir shares. The registered "flid-ds-threshold" protocol
// is ThresholdProtocol(nil), graded tolerances; WithProtocolImpl runs the
// same row built with custom ones.
package main

import (
	"fmt"

	"deltasigma"
)

// flat returns RLM-style uniform tolerances.
func flat(n int, tol float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = tol
	}
	return out
}

func run(label string, proto deltasigma.Option, seed uint64) {
	exp := deltasigma.MustNew(
		deltasigma.WithDumbbell(300_000),
		proto,
		deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 6}),
		deltasigma.WithSeed(seed),
	)
	r := exp.AddSession(1).Receivers[0]

	fmt.Printf("%s on a 300 Kbps link:\n", label)
	for t := deltasigma.Time(10) * deltasigma.Second; t <= 60*deltasigma.Second; t += 10 * deltasigma.Second {
		exp.Run(t)
		fmt.Printf("  t=%2.0fs level=%d rate=%3.0f Kbps\n",
			t.Sec(), r.Level(), r.Meter().AvgKbps(t-10*deltasigma.Second, t))
	}
	fmt.Println()
}

func main() {
	fmt.Println("Loss-rate-threshold congestion control with Shamir (k,n) key shares")
	fmt.Println("(a receiver reconstructs a level key iff its loss stayed in tolerance)")
	fmt.Println()
	run("Flat 25% tolerances (RLM): overshoots and oscillates",
		deltasigma.WithProtocolImpl(deltasigma.ThresholdProtocol(flat(6, 0.25))), 5)
	run("Graded tolerances (WEBRC): settles at the fair level",
		deltasigma.WithProtocol("flid-ds-threshold"), 5)
}
