package sigma

import (
	"slices"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Collusion is a shared key pool for a cohort of attackers working the
// same session. The paper's key-guessing analysis (§4.2) assumes each
// inflator guesses independently; a colluding cohort violates that in two
// ways. First, members tap their own legitimate receivers' subscription
// traffic, so every key any member decodes from the in-band announcements
// it is entitled to becomes available to the whole cohort — a member
// entitled to level k arms every other member with the real keys for
// groups 1..k. Second, random guesses are deduplicated across the cohort,
// so y colluders sample y·GuessesPerSlot distinct keys per group instead
// of overlapping draws.
//
// The pool keeps its maps between slots: a warm cohort allocates nothing.
type Collusion struct {
	members []*GuessAttack
	// shared maps slot → group address → a real key learned from a
	// member's legitimate subscription; gc clears the maps of past slots
	// onto idle, where learn takes them back.
	shared map[uint32]map[packet.Addr]keys.Key
	idle   []map[packet.Addr]keys.Key
	order  []uint32 // slots' scratch
	// guessed maps group address → the keys any member has already burned
	// a guess on for guessSlot. Members guess for the access slot of the
	// current one, which only moves forward, so the sets are cleared when
	// the target slot changes instead of being kept per slot.
	guessed   map[packet.Addr]map[keys.Key]bool
	guessSlot uint32

	// KeysLearned counts real keys captured from members' legitimate
	// subscription traffic.
	KeysLearned uint64
	// SharedSubmitted counts learned keys replayed by members that were
	// not entitled to them.
	SharedSubmitted uint64
}

// NewCollusion builds an empty pool.
func NewCollusion() *Collusion {
	return &Collusion{
		shared:  make(map[uint32]map[packet.Addr]keys.Key),
		guessed: make(map[packet.Addr]map[keys.Key]bool),
	}
}

// Join enrolls an attack engine: the engine switches its guessing loop to
// the pooled strategy, and a tap on its SIGMA client captures the real
// keys its embedded legitimate receiver submits. The engine mutes the tap
// around its own guess submissions, so junk guesses never pollute the
// shared store.
func (c *Collusion) Join(a *GuessAttack) {
	a.pool = c
	c.members = append(c.members, a)
	prev := a.client.Tap
	a.client.Tap = func(slot uint32, pairs []packet.AddrKey) {
		if prev != nil {
			prev(slot, pairs)
		}
		if a.mute {
			return
		}
		c.learn(slot, pairs)
	}
}

// Members reports how many engines have joined the pool.
func (c *Collusion) Members() int { return len(c.members) }

// learn records real keys observed in a member's legitimate subscription.
func (c *Collusion) learn(slot uint32, pairs []packet.AddrKey) {
	bySlot := c.shared[slot]
	if bySlot == nil {
		if n := len(c.idle); n > 0 {
			bySlot = c.idle[n-1]
			c.idle = c.idle[:n-1]
		} else {
			bySlot = make(map[packet.Addr]keys.Key)
		}
		c.shared[slot] = bySlot
	}
	for _, p := range pairs {
		if _, ok := bySlot[p.Addr]; !ok {
			bySlot[p.Addr] = p.Key
			c.KeysLearned++
		}
	}
}

// slots lists the slots the pool holds learned keys for, ascending — a
// deterministic replay order independent of map iteration. The slice is
// the pool's scratch, valid until the next call.
func (c *Collusion) slots() []uint32 {
	c.order = c.order[:0]
	// order-insensitive: the slots are sorted below
	for slot := range c.shared {
		c.order = append(c.order, slot)
	}
	slices.Sort(c.order)
	return c.order
}

// sharedKey returns the pooled real key for a group in a slot, if any
// member has decoded one.
func (c *Collusion) sharedKey(slot uint32, addr packet.Addr) (keys.Key, bool) {
	k, ok := c.shared[slot][addr]
	return k, ok
}

// freshGuess draws a random key the cohort has not guessed for this
// (slot, group) yet, with a bounded number of redraws so the per-slot
// work stays O(GuessesPerSlot) even when the unseen space thins out.
func (c *Collusion) freshGuess(rng *sim.RNG, slot uint32, addr packet.Addr) keys.Key {
	if slot != c.guessSlot {
		// order-insensitive: clears every set
		for _, seen := range c.guessed {
			clear(seen)
		}
		c.guessSlot = slot
	}
	seen := c.guessed[addr]
	if seen == nil {
		seen = make(map[keys.Key]bool)
		c.guessed[addr] = seen
	}
	k := keys.Key(rng.Uint64()) & keyMask
	for tries := 0; tries < 3 && seen[k]; tries++ {
		k = keys.Key(rng.Uint64()) & keyMask
	}
	seen[k] = true
	return k
}

// gc discards pooled state for slots that can no longer be subscribed,
// keeping the cleared maps for later slots. Map iteration order is
// irrelevant here: only entries strictly below cur are deleted, so the
// surviving state is order-independent.
func (c *Collusion) gc(cur uint32) {
	// order-insensitive: deletes every slot below cur; the idle maps it keeps are all empty
	for slot, bySlot := range c.shared {
		if slot < cur {
			delete(c.shared, slot)
			clear(bySlot)
			c.idle = append(c.idle, bySlot)
		}
	}
}
