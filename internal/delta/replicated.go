package delta

import (
	"fmt"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// ReplicatedReceiver implements the receiver half of the Figure 5 DELTA
// instantiation (a LayeredSender with Replicated set is the sender half)
// for a receiver subscribed to a single rate group. Its key structure
// collapses relative to the layered case: the top key of group g is the XOR
// of group g's own components only, and the increase key for group g is
// group g−1's top key (Eq. 6).
type ReplicatedReceiver struct {
	n    int
	slot uint32

	comp     keys.Accumulator
	got      int
	expect   int
	dec      keys.Key
	haveDec  bool
	increase int
	marked   bool
	keyBuf   [2]keys.Key // Outcome.Keys scratch: a group and its neighbour
}

// NewReplicatedReceiver builds the receiver-side instantiation for a
// session with n groups.
func NewReplicatedReceiver(n int) *ReplicatedReceiver {
	checkGroupCount(n)
	return &ReplicatedReceiver{n: n}
}

// Begin resets the receiver for a new slot.
func (r *ReplicatedReceiver) Begin(slot uint32) {
	r.slot = slot
	r.comp.Reset()
	r.got, r.expect = 0, 0
	r.haveDec = false
	r.increase = 0
	r.marked = false
}

// Observe folds one received packet of the receiver's current group.
func (r *ReplicatedReceiver) Observe(h *packet.ReplHeader, current int, marked bool) {
	if h.Slot != r.slot || int(h.Group) != current {
		return
	}
	r.got++
	r.expect = int(h.Count)
	r.comp.Add(h.Component)
	if current >= 2 {
		r.dec = h.Decrease
		r.haveDec = true
	}
	if int(h.IncreaseTo) > r.increase {
		r.increase = int(h.IncreaseTo)
	}
	if marked {
		r.marked = true
	}
}

// Finish concludes the slot for a receiver currently in group g.
func (r *ReplicatedReceiver) Finish(g int, ecnMode bool) Outcome {
	if g < 1 || g > r.n {
		panic(fmt.Sprintf("delta: replicated Finish with group %d of %d", g, r.n))
	}
	out := Outcome{Slot: r.slot}
	lost := r.got == 0 || r.got < r.expect
	congested := lost || (ecnMode && r.marked)
	if congested {
		out.Congested = true
		if g == 1 || !r.haveDec {
			out.Next = 0 // n ← null: rejoin through the minimal group
			return out
		}
		out.Next = g - 1
		out.First, out.Keys = g-1, append(r.keyBuf[:0], r.dec)
		return out
	}
	alpha := r.comp.Sum()
	out.First, out.Keys = g, append(r.keyBuf[:0], alpha)
	out.Next = g
	if g < r.n && r.increase >= g+1 {
		// ε_{g+1} = α_g: the receiver may switch up using the same value.
		out.Keys = append(out.Keys, alpha)
		out.Next = g + 1
	}
	return out
}
