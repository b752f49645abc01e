package replicated

import (
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// Attacker attacks a protected replicated session: it keeps a legitimate
// receiver running on its entitled group (the attacker still wants the
// data) while running the shared sigma.GuessAttack engine against the
// faster streams — the §4.2 attack surface aimed at the Figure 5
// instantiation.
type Attacker struct {
	*Receiver
	*sigma.GuessAttack
}

// NewAttacker turns r into an attacker guessing with rng.
func NewAttacker(r *Receiver, rng *sim.RNG) *Attacker {
	return &Attacker{
		Receiver:    r,
		GuessAttack: sigma.NewGuessAttack(r.Sess, r.client, r.Level, rng),
	}
}
