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
// guesses against an empty key store are wasted — submits GuessesPerSlot
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

	// GuessesPerSlot is y: how many random keys per group per slot the
	// attacker can afford to submit.
	GuessesPerSlot int

	inflated bool
	// GuessesSent counts submitted key guesses.
	GuessesSent uint64

	// pool, when non-nil, switches the guessing loop to the colluding
	// strategy: replay the cohort's learned real keys and deduplicate
	// random guesses across members. mute suppresses the pool's client
	// tap while the engine submits its own guess traffic.
	pool *Collusion
	mute bool
}

// Engine exposes the attack engine itself. Protocol attackers embed a
// GuessAttack, and facade wrappers embed those attackers, so the method
// promotes through the whole chain — a caller holding any wrapper can
// reach the engine with a one-method interface assertion.
func (a *GuessAttack) Engine() *GuessAttack { return a }

// NewGuessAttack builds the engine beside a legitimate receiver: it runs on
// client's host against client's edge, submitting guesses through client on
// behalf of the receiver whose current entitlement entitled reports.
func NewGuessAttack(sess *core.Session, client *Client, entitled func() int, rng *sim.RNG) *GuessAttack {
	host := client.host
	a := &GuessAttack{
		sess:           sess,
		host:           host,
		client:         client,
		igmp:           mcast.NewClient(host, client.router),
		entitled:       entitled,
		rng:            rng,
		GuessesPerSlot: 16,
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
	sched := a.host.Scheduler()
	cur := a.sess.SlotAt(sched.Now())
	// Submit guessed keys for every group above the entitled level, for
	// the next access slot.
	target := core.AccessSlot(cur)
	if a.pool != nil {
		a.pooledSlot(cur, target)
	} else {
		pairs := a.pairs[:0]
		for g := a.entitled() + 1; g <= a.sess.Rates.N; g++ {
			for i := 0; i < a.GuessesPerSlot; i++ {
				pairs = append(pairs, packet.AddrKey{
					Addr: a.sess.GroupAddr(g),
					Key:  keys.Key(a.rng.Uint64()) & keyMask,
				})
				a.GuessesSent++
			}
		}
		a.pairs = pairs
		if len(pairs) > 0 {
			a.client.Subscribe(target, pairs)
		}
	}
	a.timer.ResetAt(a.sess.SlotStart(cur+1) + 7*a.sess.SlotDur/10)
}

// pooledSlot is the colluding variant of a guessing slot: replay every
// real key the cohort has learned for any still-subscribable slot — the
// controller accepts any slot at or ahead of the current one, and even a
// current-slot grant persists through the grace window — then spend the
// per-slot guess budget only on groups the pool has no real key for,
// deduplicated cohort-wide. Members' legitimate receivers subscribe one
// evaluation behind the attack's guess target, so the replayed slots trail
// target; that is exactly why they must be submitted separately.
func (a *GuessAttack) pooledSlot(cur, target uint32) {
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
		a.pairs = pairs
		if len(pairs) > 0 {
			a.mute = true
			a.client.Subscribe(slot, pairs)
			a.mute = false
		}
	}
	pairs := a.pairs[:0]
	for g := a.entitled() + 1; g <= a.sess.Rates.N; g++ {
		addr := a.sess.GroupAddr(g)
		if _, ok := a.pool.sharedKey(target, addr); ok {
			continue
		}
		for i := 0; i < a.GuessesPerSlot; i++ {
			pairs = append(pairs, packet.AddrKey{Addr: addr, Key: a.pool.freshGuess(a.rng, target, addr)})
			a.GuessesSent++
		}
	}
	a.pairs = pairs
	if len(pairs) > 0 {
		a.mute = true
		a.client.Subscribe(target, pairs)
		a.mute = false
	}
}
