package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// TestInflateDeflateRoundTrip drives the kit's attacker through
// Inflate→Deflate→Inflate on every registered protocol that has one: the
// plain-IGMP Inflator stops its kernel receiver's rule and restarts it, the
// guessing engines keep their legitimate receiver running throughout — and
// either way the toggles must leave a clean, drainable experiment behind.
func TestInflateDeflateRoundTrip(t *testing.T) {
	for _, name := range deltasigma.Protocols() {
		if !deltasigma.ProtocolHasAttacker(name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p, _ := deltasigma.LookupProtocol(name)
			opts := append([]deltasigma.Option{deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(4)},
				protocolOptions(name)...)
			exp := deltasigma.MustNew(opts...)
			s := exp.AddSession(1)
			atk := s.AddAttacker()

			exp.Run(4 * deltasigma.Second)
			if atk.Inflated() || atk.Level() < 1 {
				t.Fatalf("before the attack: inflated=%v level=%d, want a well-behaved subscribed receiver", atk.Inflated(), atk.Level())
			}
			for round := 1; round <= 2; round++ {
				atk.Inflate()
				atk.Inflate() // idempotent
				exp.Run(exp.Now() + 3*deltasigma.Second)
				if !atk.Inflated() {
					t.Fatalf("round %d: not inflated after Inflate", round)
				}
				// An unprotected attacker abandons congestion control; a
				// protected one keeps its entitled subscription alive.
				if joined := atk.Level() > 0; joined != p.Protected {
					t.Fatalf("round %d: inflated attacker at level %d on a protected=%v protocol", round, atk.Level(), p.Protected)
				}
				if round == 1 {
					atk.Deflate()
					atk.Deflate() // idempotent
					exp.Run(exp.Now() + 3*deltasigma.Second)
					if atk.Inflated() || atk.Level() < 1 {
						t.Fatalf("after Deflate: inflated=%v level=%d, want well-behaved control resumed", atk.Inflated(), atk.Level())
					}
				}
			}
			drainAndVerify(t, exp)
		})
	}
}
