package delta

import (
	"fmt"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// ReplicatedSender implements the Figure 5 DELTA instantiation for
// replicated multicast protocols, where each subscription level is a single
// group carrying the full content at its own rate (destination-set
// grouping). The key structure collapses relative to the layered case:
// the top key of group g is the XOR of group g's own components only, and
// the increase key for group g is group g−1's top key (Eq. 6).
type ReplicatedSender struct {
	n    int
	src  *keys.Source
	slot ReplicatedSlot // the one slot in progress, reset by BeginSlot
}

// NewReplicatedSender builds the sender-side instantiation for a session
// with n rate groups.
func NewReplicatedSender(n int, src *keys.Source) *ReplicatedSender {
	checkGroupCount(n)
	return &ReplicatedSender{n: n, src: src, slot: ReplicatedSlot{newComponentSlot(n, src)}}
}

// Groups reports the session's group count.
func (s *ReplicatedSender) Groups() int { return s.n }

// ReplicatedSlot is the per-slot state of a ReplicatedSender.
type ReplicatedSlot struct{ componentSlot }

// BeginSlot precomputes the slot's keys; see LayeredSender.BeginSlot for
// the argument contract and the lifetime of the returned slot.
func (s *ReplicatedSender) BeginSlot(slot uint32, auth []bool, counts []int) *ReplicatedSlot {
	if len(auth) != s.n || len(counts) != s.n {
		panic(fmt.Sprintf("delta: BeginSlot with %d auth / %d counts for %d groups", len(auth), len(counts), s.n))
	}
	rs := &s.slot
	rs.Keys.reset(slot)
	for g := 1; g <= s.n; g++ {
		if counts[g-1] < 1 {
			panic(fmt.Sprintf("delta: group %d scheduled %d packets; need >= 1", g, counts[g-1]))
		}
		rs.schedule(g, counts[g-1])
		rs.Keys.Top[g-1] = rs.accum[g-1] // α_g = XOR of group g components only
		if g >= 2 {
			rs.Keys.Dec[g-2] = s.src.Nonce()
			if auth[g-1] {
				rs.Keys.Auth[g-1] = true
				rs.Keys.Inc[g-1] = rs.Keys.Top[g-2] // ε_g = α_{g-1}
			}
		}
	}
	return rs
}

// ReplicatedReceiver implements the receiver half of Figure 5 for a
// receiver subscribed to a single rate group.
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
