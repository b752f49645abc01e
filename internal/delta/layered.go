package delta

import (
	"fmt"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// LayeredSender implements the sender half of the Figure 4 DELTA
// instantiation for cumulative layered multicast protocols that define
// congestion as a single packet loss (FLID-DL, RLC).
//
// Per time slot the sender precomputes every key before transmitting a
// single packet (the property that lets SIGMA announce keys to edge routers
// ahead of the data), then generates component fields in real time:
// each non-final packet of group g carries a fresh nonce, and the final
// packet carries the closing value that makes the XOR of all of group g's
// components equal the group's secret X_g. Top keys are prefix XORs of the
// X_g, increase keys are the next-lower top key, and decrease keys are
// dedicated nonces carried in the decrease field one group up.
type LayeredSender struct {
	n    int
	src  *keys.Source
	slot LayeredSlot // the one slot in progress, reset by BeginSlot
}

// NewLayeredSender builds a sender-side instantiation for a session with n
// groups, minting nonces from src.
func NewLayeredSender(n int, src *keys.Source) *LayeredSender {
	checkGroupCount(n)
	return &LayeredSender{n: n, src: src, slot: LayeredSlot{newComponentSlot(n, src)}}
}

// Groups reports the session's group count.
func (s *LayeredSender) Groups() int { return s.n }

// LayeredSlot is the per-slot state of a LayeredSender: the precomputed
// keys plus the real-time component generators.
type LayeredSlot struct{ componentSlot }

// BeginSlot precomputes the keys for one slot. auth[g-1] declares whether
// the protocol authorizes an upgrade to group g this slot (auth[0] is
// ignored: there is no upgrade to the minimal group). counts[g-1] is the
// number of packets group g will transmit this slot; every group must send
// at least one packet so its key components can travel.
//
// The returned slot is the sender's one slot state, reset in place: it and
// its Keys are valid until the next BeginSlot. A slotted sender builds
// every header of a slot before it begins the next, so nothing outlives it.
func (s *LayeredSender) BeginSlot(slot uint32, auth []bool, counts []int) *LayeredSlot {
	if len(auth) != s.n || len(counts) != s.n {
		panic(fmt.Sprintf("delta: BeginSlot with %d auth / %d counts for %d groups", len(auth), len(counts), s.n))
	}
	ls := &s.slot
	ls.Keys.reset(slot)
	for g := 1; g <= s.n; g++ {
		if counts[g-1] < 1 {
			panic(fmt.Sprintf("delta: group %d scheduled %d packets; need >= 1", g, counts[g-1]))
		}
		ls.schedule(g, counts[g-1])
		if g == 1 {
			ls.Keys.Top[0] = ls.accum[0]
		} else {
			ls.Keys.Top[g-1] = keys.XOR(ls.Keys.Top[g-2], ls.accum[g-1])
			ls.Keys.Dec[g-2] = s.src.Nonce() // δ_{g-1}, carried as d_g
			if auth[g-1] {
				ls.Keys.Auth[g-1] = true
				ls.Keys.Inc[g-1] = ls.Keys.Top[g-2] // ε_g = α_{g-1}
			}
		}
	}
	return ls
}

// LayeredReceiver implements the receiver half of Figure 4: it accumulates
// the component and decrease fields observed during a slot and, at slot
// end, derives the receiver's entitled next level and the keys for it.
type LayeredReceiver struct {
	n    int
	slot uint32

	groups    []layeredGroup // what the slot has accumulated, group g at index g-1
	increase  int            // highest group an upgrade was authorized to (from headers)
	sawMarked bool           // an ECN CE mark counts as congestion for ECN-driven protocols
	keyBuf    []keys.Key     // Outcome.Keys scratch, capacity n
}

// layeredGroup is one group's share of a slot's state. A session has eight
// accumulators per receiver, so the groups sit in one slice, not a slice
// per field.
type layeredGroup struct {
	comp    keys.Accumulator // XOR of received component fields
	got     int              // packets received
	expect  int              // Count field (0 = never seen)
	dec     keys.Key         // δ_{g-1}, seen in group-g packets
	haveDec bool
}

// NewLayeredReceiver builds the receiver-side instantiation for a session
// with n groups.
func NewLayeredReceiver(n int) *LayeredReceiver {
	checkGroupCount(n)
	return &LayeredReceiver{n: n, groups: make([]layeredGroup, n), keyBuf: make([]keys.Key, 0, n)}
}

// Begin resets the receiver for a new slot.
func (r *LayeredReceiver) Begin(slot uint32) {
	r.slot = slot
	clear(r.groups)
	r.increase = 0
	r.sawMarked = false
}

// Slot reports the slot currently being accumulated.
func (r *LayeredReceiver) Slot() uint32 { return r.slot }

// Observe folds one received data packet into the slot state. Packets from
// other slots are ignored (they belong to the neighbouring slot's
// accumulator). marked reports an ECN CE mark on the packet.
func (r *LayeredReceiver) Observe(h *packet.FLIDHeader, marked bool) {
	if h.Slot != r.slot {
		return
	}
	g := int(h.Group)
	if g < 1 || g > r.n {
		return
	}
	gr := &r.groups[g-1]
	gr.got++
	gr.expect = int(h.Count)
	gr.comp.Add(h.Component)
	if g >= 2 {
		gr.dec = h.Decrease
		gr.haveDec = true
	}
	if int(h.IncreaseTo) > r.increase {
		r.increase = int(h.IncreaseTo)
	}
	if marked {
		r.sawMarked = true
	}
}

// Received reports how many packets arrived for group g this slot.
func (r *LayeredReceiver) Received(g int) int { return r.groups[g-1].got }

// lost reports whether group g (1-based) lost at least one packet this
// slot. A group from which nothing arrived counts as lossy: the sender
// guarantees at least one packet per group per slot.
func (r *LayeredReceiver) lost(g int) bool {
	gr := &r.groups[g-1]
	return gr.got == 0 || gr.got < gr.expect
}

// Finish concludes the slot for a receiver whose current subscription is
// groups 1..top and returns its entitlement. ecnMode makes CE marks count
// as congestion (the ECN-driven protocol family of §3.1.2).
func (r *LayeredReceiver) Finish(top int, ecnMode bool) Outcome {
	if top < 1 {
		panic("delta: Finish with no current subscription")
	}
	if top > r.n {
		top = r.n
	}
	out := Outcome{Slot: r.slot, First: 1}

	lossy := -1 // highest lossy group ≤ top; -1 = none
	nLossy := 0
	for g := 1; g <= top; g++ {
		if r.lost(g) {
			lossy = g
			nLossy++
		}
	}
	congested := nLossy > 0 || (ecnMode && r.sawMarked)

	if !congested {
		out.Congested = false
		// u_g: XOR of every component of groups 1..top = α_top.
		var alpha keys.Key
		for g := 1; g <= top; g++ {
			alpha = keys.XOR(alpha, r.groups[g-1].comp.Sum())
		}
		out.Keys = r.lowerKeys(top - 1)
		if len(out.Keys) == top-1 {
			out.Keys = append(out.Keys, alpha)
			out.Next = top
			if top < r.n && r.increase >= top+1 {
				// ε_{top+1} = α_top: the same value opens the next group.
				out.Keys = append(out.Keys, alpha)
				out.Next = top + 1
			}
		} else {
			// No loss, yet a decrease field is missing — can only happen
			// when a group legitimately sent zero... the sender forbids
			// that, so treat as congestion-equivalent demotion.
			out.Next = len(out.Keys)
		}
		return out
	}

	out.Congested = true

	// Contradiction resolution (§3.1.1): when the only lossy group is the
	// top one and the protocol authorized an upgrade *to* the top group,
	// the receiver reconstructs ε_top = α_{top-1} from the clean lower
	// groups and keeps its subscription — this also synchronizes receivers
	// behind a shared bottleneck.
	if nLossy == 1 && lossy == top && top >= 2 && r.increase >= top && !(ecnMode && r.sawMarked) {
		var alpha keys.Key
		for g := 1; g < top; g++ {
			alpha = keys.XOR(alpha, r.groups[g-1].comp.Sum())
		}
		if out.Keys = r.lowerKeys(top - 1); len(out.Keys) == top-1 {
			out.Keys = append(out.Keys, alpha)
			out.Next = top
			return out
		}
		// Fall through to the plain congested path.
	}

	// Plain decrease: entitled to groups 1..top−1, bounded by how far the
	// decrease-field chain reaches (a group that lost *all* packets breaks
	// the chain below it — "forced to reduce by more than one group").
	out.Keys = r.lowerKeys(top - 1)
	out.Next = len(out.Keys)
	return out
}

// lowerKeys returns the keys of groups 1..m from decrease fields, as far as
// the chain reaches: the key for group j travels in group j+1's packets, so
// it is available only while packets from each group above kept arriving.
func (r *LayeredReceiver) lowerKeys(m int) []keys.Key {
	ks := r.keyBuf[:0]
	for j := 1; j <= m; j++ {
		if !r.groups[j].haveDec { // note: groups[j].haveDec ⇔ a packet of group j+1 arrived
			break
		}
		ks = append(ks, r.groups[j].dec)
	}
	return ks
}
