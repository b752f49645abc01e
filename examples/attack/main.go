// Attack demo: the paper's Figure 1 vs Figure 7 narrative. Two multicast
// sessions and two TCP flows share a 1 Mbps bottleneck; receiver F1 turns
// malicious halfway through and inflates its subscription to all 10 groups.
// Under plain FLID-DL it captures most of the link; under FLID-DS the same
// attack changes nothing. The two runs differ in exactly one option:
// WithProtocol; the onset is declared with WithTimeline.
package main

import (
	"fmt"

	"deltasigma"
)

func run(protocol string) (pre, post, victimPost float64) {
	const half = 60 * deltasigma.Second
	exp := deltasigma.MustNew(
		deltasigma.WithDumbbell(1_000_000),
		deltasigma.WithProtocol(protocol),
		deltasigma.WithSeed(2003),
		// Session 1's attacker inflates halfway through the run.
		deltasigma.WithTimeline(deltasigma.AttackerOnset{At: half, Session: 1}),
	)
	atk := exp.AddSession(0).AddAttacker()
	s2 := exp.AddSession(1)
	exp.AddTCP(0)
	exp.AddTCP(0)

	exp.Run(2 * half)

	pre = atk.Meter().AvgKbps(20*deltasigma.Second, half)
	post = atk.Meter().AvgKbps(half+20*deltasigma.Second, 2*half)
	victimPost = s2.Receivers[0].Meter().AvgKbps(half+20*deltasigma.Second, 2*half)
	return pre, post, victimPost
}

func main() {
	fmt.Println("Inflated subscription on a 1 Mbps bottleneck (fair share 250 Kbps)")
	fmt.Println()

	pre, post, victim := run("flid-dl")
	fmt.Printf("FLID-DL (IGMP, trusted receivers):\n")
	fmt.Printf("  attacker:  %3.0f Kbps -> %3.0f Kbps after inflating\n", pre, post)
	fmt.Printf("  victim F2: %3.0f Kbps while the attack runs\n", victim)
	fmt.Println()

	pre, post, victim = run("flid-ds")
	fmt.Printf("FLID-DS (DELTA + SIGMA):\n")
	fmt.Printf("  attacker:  %3.0f Kbps -> %3.0f Kbps after 'inflating'\n", pre, post)
	fmt.Printf("  victim F2: %3.0f Kbps while the attack runs\n", victim)
	fmt.Println()
	fmt.Println("The protected attacker cannot name keys for groups its congestion")
	fmt.Println("state does not entitle it to, so the edge router never forwards them.")
}
