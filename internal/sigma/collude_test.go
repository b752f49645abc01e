package sigma

import (
	"testing"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

func TestCollusionLearnsOnceAndGC(t *testing.T) {
	c := NewCollusion()
	g1, g2 := packet.Group(grp, 1), packet.Group(grp, 2)
	c.learn(5, []packet.AddrKey{{Addr: g1, Key: 11}, {Addr: g2, Key: 22}})
	c.learn(5, []packet.AddrKey{{Addr: g1, Key: 99}}) // later key for same slot/group ignored
	if c.KeysLearned != 2 {
		t.Fatalf("KeysLearned = %d, want 2 (duplicates must not re-count)", c.KeysLearned)
	}
	if k, ok := c.sharedKey(5, g1); !ok || k != 11 {
		t.Fatalf("sharedKey(5, g1) = %v, %v; want 11, true (first key wins)", k, ok)
	}
	if _, ok := c.sharedKey(6, g1); ok {
		t.Fatal("sharedKey leaked across slots")
	}
	c.gc(6)
	if _, ok := c.sharedKey(5, g1); ok {
		t.Fatal("gc(6) left slot 5 keys behind")
	}
	// The collected slot's map is kept, cleared, for the next slot learned.
	if len(c.idle) != 1 || len(c.idle[0]) != 0 {
		t.Fatalf("gc kept %d idle maps (first holding %d keys), want 1 empty", len(c.idle), len(c.idle[0]))
	}
	c.learn(7, []packet.AddrKey{{Addr: g2, Key: 33}})
	if len(c.idle) != 0 || c.KeysLearned != 3 {
		t.Fatalf("learn after gc: %d idle maps, %d keys learned; want 0 and 3", len(c.idle), c.KeysLearned)
	}
	if _, ok := c.sharedKey(7, g1); ok {
		t.Fatal("a reused map carried a collected slot's key")
	}
}

func TestCollusionFreshGuessDeduplicates(t *testing.T) {
	c := NewCollusion()
	rng := sim.NewRNG(7)
	g := packet.Group(grp, 3)
	seen := make(map[keys.Key]bool)
	// Cohort-wide draws for one (slot, group) must be distinct: the redraw
	// loop makes a repeat need four consecutive collisions against a tiny
	// seen-set, which cannot happen in 64 draws over the b-bit space.
	for i := 0; i < 64; i++ {
		k := c.freshGuess(rng, 9, g)
		if seen[k] {
			t.Fatalf("draw %d repeated key %v", i, k)
		}
		seen[k] = true
	}
	if len(c.guessed) != 1 || len(c.guessed[g]) != 64 {
		t.Fatalf("guessed bookkeeping off: %d groups, %d keys", len(c.guessed), len(c.guessed[g]))
	}
	// The next target slot starts a fresh dedup space.
	c.freshGuess(rng, 10, g)
	if len(c.guessed[g]) != 1 || c.guessSlot != 10 {
		t.Fatalf("new target slot: %d keys remembered for slot %d, want 1 for slot 10", len(c.guessed[g]), c.guessSlot)
	}
	// ...in the same set, cleared: a warm cohort's slot of guesses
	// allocates nothing.
	slot := uint32(10)
	got := testing.AllocsPerRun(10, func() {
		slot++
		for i := 0; i < 64; i++ {
			c.freshGuess(rng, slot, g)
		}
	})
	if got != 0 {
		t.Fatalf("a warm slot of 64 deduplicated guesses allocated %.0f times", got)
	}
}

func TestCollusionTapMutedDuringOwnGuesses(t *testing.T) {
	c := NewCollusion()
	var prevCalls int
	cl := &Client{Tap: func(uint32, []packet.AddrKey) { prevCalls++ }}
	a := &GuessAttack{client: cl}
	c.Join(a)
	if c.Members() != 1 {
		t.Fatalf("Members = %d, want 1", c.Members())
	}
	g := packet.Group(grp, 1)

	cl.Tap(3, []packet.AddrKey{{Addr: g, Key: 42}}) // legit subscription observed
	if c.KeysLearned != 1 {
		t.Fatalf("unmuted tap learned %d keys, want 1", c.KeysLearned)
	}
	a.mute = true
	cl.Tap(3, []packet.AddrKey{{Addr: packet.Group(grp, 2), Key: 7}}) // own guess traffic
	if c.KeysLearned != 1 {
		t.Fatal("muted tap polluted the shared pool with guess traffic")
	}
	if prevCalls != 2 {
		t.Fatalf("pre-existing tap called %d times, want 2 (chaining must survive Join)", prevCalls)
	}
}
