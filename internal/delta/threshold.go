package delta

import (
	"fmt"
	"math"

	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
)

// ThresholdSender implements the §3.1.2 DELTA instantiation for protocols
// that declare a receiver congested only when its loss rate exceeds a
// per-level threshold (RLM's 25%, MLDA/WEBRC's level-graded thresholds).
//
// The key for level g is Shamir-shared over the n_g packets the level's
// group transmits during the slot with threshold k_g = ⌈(1−thresh_g)·n_g⌉:
// a receiver reconstructs the key exactly when its loss rate at that level
// stayed within the protocol's tolerance (equations 7–9). When the protocol
// authorizes an upgrade to level g+1, the increase key ε_{g+1} is shared
// over level g's packets the same way.
//
// Lower levels need no dedicated decrease key: their own shared keys are
// already loss-tolerant, so a congested receiver reconstructs the keys of
// every level whose threshold it still meets.
//
// The paper notes that sharing components *across* cumulative levels (so a
// level-g key could reuse lower-group packets) is an open problem; like the
// paper, each level's shares ride only on its own group's packets, and the
// rejected all-levels-per-packet design is quantified analytically in the
// overhead benchmarks.
type ThresholdSender struct {
	n        int
	src      *keys.Source
	splitter *shamir.Splitter
	thresh   []float64     // loss-rate threshold per level, e.g. 0.25
	slot     ThresholdSlot // the one slot in progress, reset by BeginSlot
}

// NewThresholdSender builds a sender for n levels with the given per-level
// loss-rate thresholds (thresh[g-1] ∈ [0,1)).
func NewThresholdSender(n int, thresh []float64, src *keys.Source, splitter *shamir.Splitter) *ThresholdSender {
	checkGroupCount(n)
	if len(thresh) != n {
		panic(fmt.Sprintf("delta: %d thresholds for %d levels", len(thresh), n))
	}
	for g, th := range thresh {
		if th < 0 || th >= 1 {
			panic(fmt.Sprintf("delta: threshold %v for level %d out of [0,1)", th, g+1))
		}
	}
	s := &ThresholdSender{n: n, src: src, splitter: splitter, thresh: thresh}
	s.slot = ThresholdSlot{
		Keys:   newSlotKeys(n), // Dec unused: zero-valued, never submitted
		sender: s,
		polys:  make([]shamir.Polynomial, n),
		ups:    make([]shamir.Polynomial, n),
		hasUp:  make([]bool, n),
		seq:    make([]uint32, n),
		counts: make([]int, n),
	}
	return s
}

// ShareThreshold returns k_g for a level transmitting count packets:
// the number of packets a receiver must catch to reconstruct the key.
func (s *ThresholdSender) ShareThreshold(g, count int) int {
	k := int(math.Ceil((1 - s.thresh[g-1]) * float64(count)))
	if k < 1 {
		k = 1
	}
	if k > count {
		k = count
	}
	return k
}

// ThresholdSlot is the per-slot state: sampled polynomials per level plus
// emission cursors.
type ThresholdSlot struct {
	Keys SlotKeys

	sender *ThresholdSender
	polys  []shamir.Polynomial // level key polynomials, coefficient buffers kept across slots
	ups    []shamir.Polynomial // ups[g-1]: ε_{g+1} shared over level g packets
	hasUp  []bool              // ups[g-1] was sampled this slot (the upgrade is authorized)
	seq    []uint32            // next share index per level
	counts []int
}

// BeginSlot samples the slot's polynomials. auth[g-1] authorizes an upgrade
// to level g; counts[g-1] is the packet count of level g this slot. The
// returned slot is the sender's one slot state, reset in place: see
// LayeredSender.BeginSlot for its lifetime.
func (s *ThresholdSender) BeginSlot(slot uint32, auth []bool, counts []int) (*ThresholdSlot, error) {
	if len(auth) != s.n || len(counts) != s.n {
		panic(fmt.Sprintf("delta: BeginSlot with %d auth / %d counts for %d levels", len(auth), len(counts), s.n))
	}
	ts := &s.slot
	ts.Keys.reset(slot)
	clear(ts.hasUp)
	clear(ts.seq)
	copy(ts.counts, counts)
	for g := 1; g <= s.n; g++ {
		if counts[g-1] < 1 {
			return nil, fmt.Errorf("delta: level %d scheduled %d packets", g, counts[g-1])
		}
		secret := s.src.Nonce()
		ts.Keys.Top[g-1] = secret
		if err := s.splitter.Resample(&ts.polys[g-1], uint64(secret), s.ShareThreshold(g, counts[g-1])); err != nil {
			return nil, err
		}
	}
	for g := 2; g <= s.n; g++ {
		if !auth[g-1] {
			continue
		}
		ts.Keys.Auth[g-1] = true
		ts.Keys.Inc[g-1] = s.src.Nonce()
		// ε_g rides on level g−1's packets with level g−1's threshold.
		if err := s.splitter.Resample(&ts.ups[g-2], uint64(ts.Keys.Inc[g-1]), s.ShareThreshold(g-1, counts[g-2])); err != nil {
			return nil, err
		}
		ts.hasUp[g-2] = true
	}
	return ts, nil
}

// Shares returns the level-key share and (possibly zero) upgrade-key share
// for the next packet of level g. Must be called once per scheduled packet.
func (ts *ThresholdSlot) Shares(g int) (share, upShare shamir.Share) {
	idx := g - 1
	if int(ts.seq[idx]) >= ts.counts[idx] {
		panic(fmt.Sprintf("delta: level %d exceeded its %d scheduled packets", g, ts.counts[idx]))
	}
	ts.seq[idx]++
	x := ts.seq[idx] // 1-based share coordinate
	share = ts.polys[idx].ShareAt(x)
	if ts.hasUp[idx] {
		upShare = ts.ups[idx].ShareAt(x)
	}
	return share, upShare
}

// ThresholdReceiver accumulates shares per level and reconstructs the keys
// the receiver's loss rates entitle it to.
type ThresholdReceiver struct {
	n      int
	thresh []float64
	slot   uint32

	shares   [][]shamir.Share
	upShares [][]shamir.Share
	got      []int
	expect   []int
	increase int
	keyBuf   []keys.Key // Outcome.Keys scratch, capacity n
}

// NewThresholdReceiver builds a receiver for n levels with the protocol's
// per-level loss thresholds (which receivers know a priori).
func NewThresholdReceiver(n int, thresh []float64) *ThresholdReceiver {
	checkGroupCount(n)
	if len(thresh) != n {
		panic(fmt.Sprintf("delta: %d thresholds for %d levels", len(thresh), n))
	}
	return &ThresholdReceiver{
		n: n, thresh: thresh,
		shares:   make([][]shamir.Share, n),
		upShares: make([][]shamir.Share, n),
		got:      make([]int, n),
		expect:   make([]int, n),
		keyBuf:   make([]keys.Key, 0, n),
	}
}

// Begin resets the receiver for a new slot. The share lists are truncated,
// not dropped: Observe appends into the capacity earlier slots grew.
func (r *ThresholdReceiver) Begin(slot uint32) {
	r.slot = slot
	for i := range r.shares {
		r.shares[i] = r.shares[i][:0]
		r.upShares[i] = r.upShares[i][:0]
	}
	clear(r.got)
	clear(r.expect)
	r.increase = 0
}

// Observe folds one received packet into the slot state. The signature
// matches LayeredReceiver.Observe so both accumulate behind one key-receiver
// kernel; the loss-threshold family has no ECN variant, so the mark is
// ignored.
func (r *ThresholdReceiver) Observe(h *packet.FLIDHeader, _ bool) {
	if h.Slot != r.slot {
		return
	}
	g := int(h.Group)
	if g < 1 || g > r.n {
		return
	}
	idx := g - 1
	r.got[idx]++
	r.expect[idx] = int(h.Count)
	if h.ShareX != 0 {
		r.shares[idx] = appendShare(r.shares[idx], h.ShareX, h.ShareY, h.Count)
	}
	if h.UpShareX != 0 {
		r.upShares[idx] = appendShare(r.upShares[idx], h.UpShareX, h.UpShareY, h.Count)
	}
	if int(h.IncreaseTo) > r.increase {
		r.increase = int(h.IncreaseTo)
	}
}

// appendShare appends one share to a level's list, sizing a list's first
// allocation for the count packets the level sends in a slot.
func appendShare(list []shamir.Share, x, y uint32, count uint16) []shamir.Share {
	if list == nil {
		list = make([]shamir.Share, 0, count)
	}
	return append(list, shamir.Share{X: x, Y: y})
}

// need returns k_g given the expected count for the level.
func (r *ThresholdReceiver) need(g int) int {
	k := int(math.Ceil((1 - r.thresh[g-1]) * float64(r.expect[g-1])))
	if k < 1 {
		k = 1
	}
	return k
}

// reconstruct attempts to recover the key of level g from the first k
// shares gathered.
func (r *ThresholdReceiver) reconstruct(g int, up bool) (keys.Key, bool) {
	idx := g - 1
	pool := r.shares[idx]
	if up {
		pool = r.upShares[idx]
	}
	if r.expect[idx] == 0 {
		return 0, false
	}
	k := r.need(g)
	if len(pool) < k {
		return 0, false
	}
	secret, err := shamir.Reconstruct(pool[:k])
	if err != nil {
		return 0, false
	}
	return keys.Key(secret), true
}

// Finish concludes the slot for a receiver subscribed to levels 1..top.
// The receiver is congested when level top's loss rate exceeded its
// threshold; its entitled next level is the highest contiguous prefix of
// levels whose keys it reconstructed, plus one more when an upgrade was
// authorized and the upgrade key came through. As with Observe, the ECN
// mode of LayeredReceiver.Finish is accepted and ignored.
func (r *ThresholdReceiver) Finish(top int, _ bool) Outcome {
	if top < 1 || top > r.n {
		panic(fmt.Sprintf("delta: threshold Finish with top %d of %d", top, r.n))
	}
	out := Outcome{Slot: r.slot, First: 1, Keys: r.keyBuf[:0]}
	out.Congested = r.got[top-1] < r.need(top) || r.expect[top-1] == 0

	for g := 1; g <= top; g++ {
		key, ok := r.reconstruct(g, false)
		if !ok {
			break
		}
		out.Keys = append(out.Keys, key)
	}
	reach := len(out.Keys)
	out.Next = reach
	if reach == top && !out.Congested && top < r.n && r.increase >= top+1 {
		if up, ok := r.reconstruct(top, true); ok {
			out.Keys = append(out.Keys, up)
			out.Next = top + 1
		}
	}
	return out
}
