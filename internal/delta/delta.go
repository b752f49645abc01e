// Package delta implements DELTA (Distribution of ELigibility To Access),
// the paper's in-band key distribution method (§3.1): the sender spreads
// dynamic group keys over the data packets of a time slot so that a
// receiver can reconstruct exactly the keys its congestion state entitles
// it to under the protocol's subscription rules:
//
//  1. an uncongested receiver obtains updated keys for its current
//     subscription level,
//  2. a congested receiver obtains updated keys for a lower level, and
//  3. when authorized, an uncongested receiver obtains an updated key for
//     a higher level.
//
// Three instantiations are provided, mirroring §3.1.1–3.1.2, on two
// senders — one spreading XOR components, one Shamir shares — and a
// receiver each:
//
//   - cumulative layered multicast where a single packet loss means
//     congestion (FLID-DL, RLC), Figure 4: LayeredSender and
//     LayeredReceiver;
//   - replicated multicast where each level is a single group
//     (destination-set grouping), Figure 5: LayeredSender with Replicated
//     set, whose top keys differ in one line, and ReplicatedReceiver;
//   - loss-rate-threshold protocols (RLM, MLDA, WEBRC) using Shamir (k,n)
//     sharing, equations 7–9: ThresholdSender and ThresholdReceiver.
//
// The ECN adaptation (edge routers scrub the component field of marked
// packets) lives in ScrubComponent.
package delta

import (
	"fmt"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// SlotKeys holds every key guarding one session's groups for one time slot:
// the Figure 3 table. Indexing is 1-based group number g mapped to slice
// index g−1.
type SlotKeys struct {
	Slot uint32
	// Top[g-1] is α_g: XOR of the component fields of all packets of the
	// subscription level (Eq. 3 layered, Eq. 6 replicated).
	Top []keys.Key
	// Dec[g-1] is δ_g, the decrease key opening group g, carried in the
	// decrease field of every group-(g+1) packet (Eq. 4). Defined for
	// g = 1..N−1.
	Dec []keys.Key
	// Inc[g-1] is ε_g, the increase key opening group g, reconstructable
	// from the components of the level below (Eq. 5). Meaningful only
	// where Auth[g-1] is set; defined for g = 2..N.
	Inc []keys.Key
	// Auth[g-1] reports whether the protocol authorized an upgrade to
	// group g during this slot.
	Auth []bool
}

// Groups reports N, the number of groups in the session.
func (k *SlotKeys) Groups() int { return len(k.Top) }

// Opens reports whether key opens group g (1-based) in this slot: it must
// match the top key, the decrease key, or — when an upgrade to g was
// authorized — the increase key. This is the validation edge routers run.
func (k *SlotKeys) Opens(g int, key keys.Key) bool {
	if g < 1 || g > len(k.Top) {
		return false
	}
	if key == k.Top[g-1] {
		return true
	}
	if g-1 < len(k.Dec) && key == k.Dec[g-1] {
		return true
	}
	if g >= 2 && k.Auth[g-1] && key == k.Inc[g-1] {
		return true
	}
	return false
}

// Tuples renders the slot's keys as SIGMA address-key tuples for a session
// whose group g has address base+g−1 (§3.2.1), in a fresh slice.
func (k *SlotKeys) Tuples(base packet.Addr) []packet.KeyTuple {
	return k.AppendTuples(make([]packet.KeyTuple, 0, len(k.Top)), base)
}

// AppendTuples appends the slot's tuples to dst and returns the extended
// slice; senders pass their previous slot's tuples truncated, so a warm
// slot allocates nothing.
func (k *SlotKeys) AppendTuples(dst []packet.KeyTuple, base packet.Addr) []packet.KeyTuple {
	for g := 1; g <= len(k.Top); g++ {
		t := packet.KeyTuple{Addr: packet.Group(base, g-1), Top: k.Top[g-1]}
		if g-1 < len(k.Dec) {
			t.Dec = k.Dec[g-1]
			t.HasDec = true
		}
		if g >= 2 && k.Auth[g-1] {
			t.Inc = k.Inc[g-1]
			t.HasInc = true
		}
		dst = append(dst, t)
	}
	return dst
}

// newSlotKeys sizes the Figure 3 table for n groups; senders keep one and
// reset it every slot.
func newSlotKeys(n int) SlotKeys {
	return SlotKeys{
		Top:  make([]keys.Key, n),
		Dec:  make([]keys.Key, max(n-1, 0)),
		Inc:  make([]keys.Key, n),
		Auth: make([]bool, n),
	}
}

// reset clears the table for a new slot.
func (k *SlotKeys) reset(slot uint32) {
	k.Slot = slot
	clear(k.Top)
	clear(k.Dec)
	clear(k.Inc)
	clear(k.Auth)
}

// Outcome is what a receiver-side DELTA instantiation concludes at the end
// of a time slot: the next subscription level the receiver is entitled to
// and the keys proving it.
type Outcome struct {
	Slot uint32
	// Congested reports whether the protocol's congestion predicate held
	// during the slot.
	Congested bool
	// Next is the entitled next top group (1-based). Zero means the
	// receiver could not even keep the minimal group and must rejoin the
	// session from scratch.
	Next int
	// Keys[i] is the reconstructed key that opens group First+i. An
	// entitlement is always a run of adjacent groups — a prefix of the
	// layers, or a replicated group and its neighbour — so the keys are in
	// ascending group order by construction. The slice is the receiver's
	// scratch: it is valid until that receiver's next Finish.
	First int
	Keys  []keys.Key
}

// Key returns the reconstructed key that opens group g, if the outcome
// holds one.
func (o *Outcome) Key(g int) (keys.Key, bool) {
	if i := g - o.First; i >= 0 && i < len(o.Keys) {
		return o.Keys[i], true
	}
	return 0, false
}

func checkGroupCount(n int) {
	if n < 1 || n > 255 {
		panic(fmt.Sprintf("delta: session with %d groups out of [1,255]", n))
	}
}
