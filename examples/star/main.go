// Star-topology demo: one protected session fans out from a hub across
// three bottleneck spokes of different capacities, each with its own SIGMA
// gatekeeper at the edge router (§3.2.3: every edge enforces keys
// independently). Each receiver converges to the fair level of its own
// spoke — heterogeneity the single-bottleneck dumbbell cannot express —
// while a TCP flow competes on the first spoke.
package main

import (
	"fmt"

	"deltasigma"
)

func main() {
	exp := deltasigma.MustNew(
		deltasigma.WithTopology(deltasigma.TopologySpec{
			Kind:          "star",
			CapacitiesBps: []int64{600_000, 250_000, 120_000},
		}),
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithSeed(3),
	)
	// Three receivers round-robin onto the three spokes.
	sess := exp.AddSession(3)
	exp.AddTCP(0) // lands on the 600 Kbps spoke (round-robin continues)

	res := exp.Run(60 * deltasigma.Second)

	fmt.Println("One FLID-DS session across a 3-spoke star (600/250/120 Kbps):")
	for _, r := range sess.Receivers {
		fmt.Printf("  %s: level=%d avg=%3.0f Kbps\n", r.Label(), r.Level(),
			r.Meter().AvgKbps(30*deltasigma.Second, 60*deltasigma.Second))
	}
	for _, c := range res.Cross {
		fmt.Printf("  %s: avg=%3.0f Kbps\n", c.Label, c.AvgKbps)
	}
	fmt.Println("\nPer-spoke bottlenecks:")
	for _, b := range res.Bottlenecks {
		fmt.Printf("  %-12s %4.0f Kbps, utilization %3.0f%%, %d lost\n",
			b.Label, float64(b.CapacityBps)/1000, 100*b.Utilization, b.Dropped)
	}
	fmt.Println("\nEvery edge router checks keys on its own: a receiver's subscription")
	fmt.Println("is bounded by its spoke's capacity, not by the slowest member.")
}
