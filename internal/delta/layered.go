package delta

import (
	"fmt"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// LayeredSender implements the sender half of the Figure 4 DELTA
// instantiation for cumulative layered multicast protocols that define
// congestion as a single packet loss (FLID-DL, RLC), and — Replicated set —
// of the Figure 5 instantiation for replicated ones, where each
// subscription level is a single group carrying the full content at its
// own rate (destination-set grouping).
//
// Per time slot the sender precomputes every key before transmitting a
// single packet (the property that lets SIGMA announce keys to edge routers
// ahead of the data), then draws the slot's component fields:
// each non-final packet of group g carries a fresh nonce, and the final
// packet carries the closing value that makes the XOR of all of group g's
// components equal the group's secret X_g. Top keys are prefix XORs of the
// X_g (Eq. 3) — or, replicated, each group's own X_g (Eq. 6) — increase
// keys are the next-lower top key, and decrease keys are dedicated nonces
// carried in the decrease field one group up.
type LayeredSender struct {
	n   int
	src *keys.Source
	// Replicated selects Figure 5's key structure: every group is a
	// complete stream, so its top key is its own secret.
	Replicated bool
	slot       LayeredSlot // the one slot in progress, reset by BeginSlot
}

// NewLayeredSender builds a sender-side instantiation for a session with n
// groups, minting nonces from src.
func NewLayeredSender(n int, src *keys.Source) *LayeredSender {
	checkGroupCount(n)
	return &LayeredSender{n: n, src: src, slot: LayeredSlot{
		Keys:   newSlotKeys(n),
		src:    src,
		secret: make([]keys.Key, n),
		comps:  make([][]keys.Key, n),
		next:   make([]int, n),
	}}
}

// LayeredSlot is the per-slot state of a LayeredSender: the precomputed
// keys plus, per group, the slot's component fields — every non-final
// packet carries a fresh nonce, the final one the closing value that makes
// the group's components XOR to its secret.
//
// The components are drawn at slot start, in (group, seq) order, and
// Fields hands them out in seq order per group. The nonce stream is the
// sender's one keys.Source, so drawing up front keeps every key the same
// however a sender interleaves its groups' packets at send time.
type LayeredSlot struct {
	Keys SlotKeys

	src    *keys.Source
	secret []keys.Key   // X_g: the first nonce of group g, which its components XOR to
	comps  [][]keys.Key // comps[g-1]: group g's component fields in seq order, reused every slot
	next   []int        // next component to hand out per group
}

// BeginSlot precomputes the keys for one slot. auth[g-1] declares whether
// the protocol authorizes an upgrade to group g this slot (auth[0] is
// ignored: there is no upgrade to the minimal group). counts[g-1] is the
// number of packets group g will transmit this slot; every group must send
// at least one packet so its key components can travel.
//
// The returned slot is the sender's one slot state, reset in place: it and
// its Keys are valid until the next BeginSlot. A slotted sender sends
// every packet of a slot before it begins the next, so nothing outlives it.
// Every nonce of the slot is drawn here, the component fields last, so
// Fields draws nothing and its callers may interleave groups freely.
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
		ls.Keys.Top[g-1] = ls.secret[g-1] // α_g of a replicated group: its own secret (Eq. 6)
		if g == 1 {
			continue
		}
		if !s.Replicated {
			ls.Keys.Top[g-1] = keys.XOR(ls.Keys.Top[g-2], ls.secret[g-1]) // α_g of a layer: the XOR up the layers (Eq. 3)
		}
		ls.Keys.Dec[g-2] = s.src.Nonce() // δ_{g-1}, carried as d_g
		if auth[g-1] {
			ls.Keys.Auth[g-1] = true
			ls.Keys.Inc[g-1] = ls.Keys.Top[g-2] // ε_g = α_{g-1}
		}
	}
	ls.draw()
	return ls
}

// schedule arms group g for count packets and draws its secret X_g: the
// closing component cancels every later nonce, so the group's components
// XOR to this first one. A buffer too small for the slot is replaced with
// the sender rings' headroom, so the pacer's slot-to-slot wobble does not
// replace it again.
func (ls *LayeredSlot) schedule(g, count int) {
	if cap(ls.comps[g-1]) < count {
		ls.comps[g-1] = make([]keys.Key, 0, count+count/8+1)
	}
	ls.comps[g-1], ls.next[g-1] = ls.comps[g-1][:count], 0
	ls.secret[g-1] = ls.src.Nonce()
}

// draw fills every group's components once the slot's keys are set, in
// (group, seq) order: each non-final packet a fresh nonce folded into the
// running closing value C_g of Figure 4, the final one C_g itself.
func (ls *LayeredSlot) draw() {
	for g, comps := range ls.comps {
		accum := ls.secret[g]
		last := len(comps) - 1
		for p := range last {
			c := ls.src.Nonce()
			accum = keys.XOR(accum, c)
			comps[p] = c
		}
		comps[last] = accum
	}
}

// Fields returns the component and decrease fields for the next packet of
// group g (1-based). It must be called exactly counts[g-1] times per slot
// per group; the final call returns the closing component. The decrease
// field d_g is δ_{g-1} for g ≥ 2 and zero for the minimal group.
func (ls *LayeredSlot) Fields(g int) (component, decrease keys.Key) {
	idx := g - 1
	if ls.next[idx] >= len(ls.comps[idx]) {
		panic(fmt.Sprintf("delta: group %d exceeded its %d scheduled packets", g, len(ls.comps[idx])))
	}
	component = ls.comps[idx][ls.next[idx]]
	ls.next[idx]++
	if g >= 2 {
		decrease = ls.Keys.Dec[g-2]
	}
	return component, decrease
}

// Done reports whether every scheduled packet of every group has had its
// fields handed out.
func (ls *LayeredSlot) Done() bool {
	for g, comps := range ls.comps {
		if ls.next[g] != len(comps) {
			return false
		}
	}
	return true
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

// layeredGroup is one group's share of a slot's state. A session holds an
// accumulator per receiver and slot in flight, so the groups sit in one
// slice, not a slice per field.
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
