package sigma

import (
	"deltasigma/internal/core"
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// GuessAttack is the shared engine of every inflated-subscription attacker
// against a SIGMA-protected session (§4.2): once inflated, it sends plain
// IGMP joins for every group (which a SIGMA edge ignores) and, late in
// each slot — after the edge holds the slot's announced keys, since
// guesses against an empty key store are wasted — submits guessesPerSlot
// random key guesses per group above the attacker's entitled level.
// Protocol attackers embed a GuessAttack beside their legitimate receiver;
// entitled reports that receiver's current level (or group).
type GuessAttack struct {
	sess     *core.Session
	host     *netsim.Host
	client   *Client
	igmp     *mcast.Client
	entitled func() int
	rng      *sim.RNG
	timer    *sim.Timer       // reusable per-slot guessing timer
	pairs    []packet.AddrKey // per-message scratch; Subscribe copies it

	inflated bool
	// GuessesSent counts submitted key guesses.
	GuessesSent uint64

	// pool is the colluding cohort the engine belongs to (nil for a lone
	// attacker): the engine replays the cohort's learned real keys and
	// draws its guesses through the pool, deduplicated across members.
	// mute suppresses the pool's client tap while the engine submits its
	// own traffic.
	pool *Collusion
	mute bool
}

// guessesPerSlot is y: how many random keys per group per slot an
// attacker can afford to submit.
const guessesPerSlot = 16

// NewGuessAttack builds the engine beside a legitimate receiver: it runs on
// client's host against client's edge, submitting guesses through client on
// behalf of the receiver whose current entitlement entitled reports.
func NewGuessAttack(sess *core.Session, client *Client, entitled func() int, rng *sim.RNG) *GuessAttack {
	host := client.host
	a := &GuessAttack{
		sess:     sess,
		host:     host,
		client:   client,
		igmp:     mcast.NewClient(host, client.router),
		entitled: entitled,
		rng:      rng,
	}
	a.timer = host.Scheduler().NewTimer(a.attackSlot)
	return a
}

// Inflate begins the inflation attempts.
func (a *GuessAttack) Inflate() {
	if a.inflated {
		return
	}
	a.inflated = true
	// Plain IGMP joins: a SIGMA edge router confers nothing for them.
	for g := 1; g <= a.sess.Rates.N; g++ {
		a.igmp.Join(a.sess.GroupAddr(g))
	}
	a.attackSlot()
}

// Deflate calls the attack off (the dynamics layer's attacker-stop event):
// the plain-IGMP joins are withdrawn and the pending guessing-slot timer
// is cancelled — a later re-Inflate starts exactly one fresh loop instead
// of stacking a second chain on the leftover event. The embedded
// legitimate receiver is untouched — the former attacker keeps its
// entitled subscription.
func (a *GuessAttack) Deflate() {
	if !a.inflated {
		return
	}
	a.inflated = false
	a.timer.Stop()
	for g := 1; g <= a.sess.Rates.N; g++ {
		a.igmp.Leave(a.sess.GroupAddr(g))
	}
}

// Inflated reports whether the attack is active.
func (a *GuessAttack) Inflated() bool { return a.inflated }

// keyMask keeps guesses within the b-bit key space of the evaluation.
const keyMask = keys.Key(1)<<keys.DefaultBits - 1

func (a *GuessAttack) attackSlot() {
	if !a.inflated {
		return
	}
	cur := a.sess.SlotAt(a.host.Scheduler().Now())
	if a.pool != nil {
		a.replay(cur)
	}
	// Guess keys for the next access slot for every group above the
	// entitled level that the pool holds no real key for; a colluder's
	// guesses are deduplicated cohort-wide.
	target := core.AccessSlot(cur)
	pairs := a.pairs[:0]
	for g := a.entitled() + 1; g <= a.sess.Rates.N; g++ {
		addr := a.sess.GroupAddr(g)
		if _, ok := a.pool.sharedKey(target, addr); ok {
			continue
		}
		for i := 0; i < guessesPerSlot; i++ {
			pairs = append(pairs, packet.AddrKey{Addr: addr, Key: a.pool.freshGuess(a.rng, target, addr)})
			a.GuessesSent++
		}
	}
	a.submit(target, pairs)
	a.timer.ResetAt(a.sess.SlotStart(cur+1) + 7*a.sess.SlotDur/10)
}

// replay submits every real key the cohort has learned for any
// still-subscribable slot — the controller accepts any slot at or ahead of
// the current one, and even a current-slot grant persists through the
// grace window. Members' legitimate receivers subscribe one evaluation
// behind the attack's guess target, so the replayed slots trail it; that
// is exactly why they are submitted apart from the guesses.
func (a *GuessAttack) replay(cur uint32) {
	a.pool.gc(cur)
	for _, slot := range a.pool.slots() {
		pairs := a.pairs[:0]
		for g := a.entitled() + 1; g <= a.sess.Rates.N; g++ {
			addr := a.sess.GroupAddr(g)
			if k, ok := a.pool.sharedKey(slot, addr); ok {
				pairs = append(pairs, packet.AddrKey{Addr: addr, Key: k})
				a.pool.SharedSubmitted++
			}
		}
		a.submit(slot, pairs)
	}
}

// submit sends pairs for slot, muting the pool's tap: the engine's own
// traffic must never reach the shared store.
func (a *GuessAttack) submit(slot uint32, pairs []packet.AddrKey) {
	a.pairs = pairs
	if len(pairs) == 0 {
		return
	}
	a.mute = true
	a.client.Subscribe(slot, pairs)
	a.mute = false
}
