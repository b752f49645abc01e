package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// End-to-end pool-balance check: run a protected experiment (multicast
// fan-out, SIGMA control traffic, announcements), stop the traffic, let the
// network drain, and verify every pooled packet reference came back — the
// experiment-level leak gauge for the whole Retain/Release discipline.
func TestExperimentPoolBalancedAfterDrain(t *testing.T) {
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		pool := &deltasigma.PacketPool{}
		exp := deltasigma.MustNew(
			deltasigma.WithProtocol(proto),
			deltasigma.WithSeed(5),
			deltasigma.WithPacketPool(pool),
		)
		exp.AddSession(2)
		exp.Advance(3 * deltasigma.Second)
		if pool.Issued == 0 {
			t.Fatalf("%s: experiment issued no pooled packets", proto)
		}

		// The shared helper stops all traffic, drains, and asserts pool
		// balance plus the per-link conservation laws.
		drainAndVerify(t, exp)
	}
}

// A sender mints each packet when it sends it, so a session's pool holds
// only what is in flight: one 2 s session of either FLID variant draws at
// most freshBound envelopes (minting a whole slot up front drew 427 under
// flid-dl and 220 under flid-ds). The same pool handed to a second
// experiment (the campaign-worker pattern) keeps recycling and grows by at
// most warmGrowth.
func TestPoolReuseAcrossExperiments(t *testing.T) {
	const freshBound, warmGrowth = 32, 4
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		pool := &deltasigma.PacketPool{}
		run := func(seed uint64) {
			exp := deltasigma.MustNew(
				deltasigma.WithProtocol(proto),
				deltasigma.WithSeed(seed),
				deltasigma.WithPacketPool(pool),
			)
			exp.AddSession(1)
			exp.Advance(2 * deltasigma.Second)
			drainAndVerify(t, exp)
		}
		run(1)
		fresh := pool.Fresh
		if fresh == 0 {
			t.Fatalf("%s: first run allocated nothing — test is vacuous", proto)
		}
		if fresh > freshBound {
			t.Errorf("%s: one session minted %d fresh envelopes, want <= %d: emissions are minted ahead of their send time", proto, fresh, freshBound)
		}
		run(2)
		if grown := pool.Fresh - fresh; grown > warmGrowth {
			t.Errorf("%s: second experiment allocated %d fresh envelopes (first run: %d), want <= %d on the warm pool", proto, grown, fresh, warmGrowth)
		}
	}
}
