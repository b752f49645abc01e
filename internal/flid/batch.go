package flid

import (
	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// This file holds the struct-of-arrays state shared by every kernel
// receiver of one session, whatever rule drives it. A receiver used to own
// a map of per-slot tally objects, so the per-packet path hashed a slot
// number and chased a pointer, and the per-slot path allocated, deleted
// and garbage-collected map entries.
// Now each session anchors one batch on its scheduler (sim.Scheduler
// Anchor, so concurrently running experiments never share state) and each
// receiver is an index into parallel slices: subscription levels, probation
// clocks and per-slot tallies live in flat arrays, per-slot storage is a
// fixed ring of tallyW slots wide, and the shared SlotDriver evaluates all
// members of a slot clock in one pass over adjacent rows. A cohort is one
// more row (Tally): it tallies its edge's delivery in the same ring and
// reads each bucket's SlotView through the same view a receiver does.
//
// A key receiver's DELTA accumulator is not owned by its ring entry: it
// is leased from the batch when the slot's first packet arrives and given
// back when the slot is evaluated, so a member holds one accumulator per
// slot in flight — two in steady state — not one per ring entry. Its
// level-by-slot history is the two decisions in flight, indexed by slot
// parity: evaluating slot s decides the level for slot s+2, so the entry
// for slot s holds the level in force during s until that evaluation
// overwrites it.
//
// Ring correctness: an entry is claimed by writing the full 32-bit slot
// number into its tag, so a stale entry can never be mistaken for another
// slot — lookups compare the exact slot, not slot mod tallyW. Two live
// (received-but-not-yet-evaluated) slots could only collide if they were
// tallyW apart, and the live span is at most four slots: senders emit only
// the slot in progress, packets arrive within a slot or early in the next,
// and evaluation lags the clock by two slots at most. Observations for
// slots before evalFloor (already evaluated) are dropped; the map-based
// code accumulated them into entries its evaluator, which reads only the
// exact finished slot, never looked at.
const tallyW = 8 // per-slot tally ring width, power of two

// dlBatch is the struct-of-arrays state of every tally receiver attached
// to one session (on one scheduler).
type dlBatch struct {
	n int // groups

	// Per member (index mi):
	level     []int32  // current subscription level
	evalFloor []uint32 // first slot not yet evaluated; older data is stray
	// joined, stride n+1: the data slot from which each group is fully
	// counted — the probation clock of the two-slot join pipeline.
	joined []uint32

	// Per member and ring entry (index mi*tallyW + slot%tallyW):
	tag []uint32 // slot the entry currently tallies
	inc []int32  // highest increase-to signal seen in the slot
	// got and expect, stride tallyW*n: per-group receptions and the
	// per-group expected count announced in headers.
	got    []int32
	expect []int32
}

type dlKey struct{ sess *core.Session }

func dlBatchFor(sched *sim.Scheduler, sess *core.Session) *dlBatch {
	return sched.Anchor(dlKey{sess}, func() any {
		return &dlBatch{n: sess.Rates.N}
	}).(*dlBatch)
}

// join adds one member and returns its index. Zero state is valid: level 0
// (not subscribed), empty probation clocks, and every ring entry reading
// as an empty tally for slot 0 — exactly what a missing map entry meant.
func (b *dlBatch) join() int {
	mi := len(b.level)
	b.level = extend(b.level, 1)
	b.evalFloor = extend(b.evalFloor, 1)
	b.joined = extend(b.joined, b.n+1)
	b.tag = extend(b.tag, tallyW)
	b.inc = extend(b.inc, tallyW)
	b.got = extend(b.got, tallyW*b.n)
	b.expect = extend(b.expect, tallyW*b.n)
	return mi
}

// extend appends k zero values to a batch column, at least doubling its
// capacity when it must grow: append alone grows a large slice by ~1.25×,
// which copies a batch about five times over while its members join.
func extend[T any](s []T, k int) []T {
	n := len(s)
	if n+k > cap(s) {
		s = append(make([]T, 0, max(2*cap(s), n+k)), s...)
	}
	s = s[:n+k]
	clear(s[n:]) // not append(s, make(…)...): that allocates under -race
	return s
}

// observe tallies one data packet for member mi.
func (b *dlBatch) observe(mi int, h *packet.FLIDHeader) {
	g := int(h.Group)
	if g < 1 || g > b.n {
		return
	}
	slot := h.Slot
	if slot < b.evalFloor[mi] {
		return // stray from an already evaluated slot; never read
	}
	ri := mi*tallyW + int(slot&(tallyW-1))
	base := ri * b.n
	if b.tag[ri] != slot {
		b.tag[ri] = slot
		b.inc[ri] = 0
		clear(b.got[base : base+b.n])
		clear(b.expect[base : base+b.n])
	}
	b.got[base+g-1]++
	b.expect[base+g-1] = int32(h.Count)
	if int32(h.IncreaseTo) > b.inc[ri] {
		b.inc[ri] = int32(h.IncreaseTo)
	}
}

// view reads member mi's tally of a finished slot as a rule sees it, for a
// subscriber of lvl groups whose probation clocks are joined (indexed by
// group): only groups fully counted by the slot are checked for loss.
func (b *dlBatch) view(mi int, slot uint32, lvl int, joined []uint32) SlotView {
	ri := mi*tallyW + int(slot&(tallyW-1))
	base := ri * b.n
	has := b.tag[ri] == slot // any packet of the slot tallied (slot 0: zero state reads as an empty tally, like a missing map entry)
	v := SlotView{Slot: slot}
	for g := 1; g <= lvl; g++ {
		if joined[g] > slot {
			continue // not yet a full member for this slot
		}
		v.Counted = true
		if !has || b.got[base+g-1] == 0 || b.got[base+g-1] < b.expect[base+g-1] {
			v.Loss = true
			break
		}
	}
	if has {
		v.Inc = int(b.inc[ri])
	}
	return v
}

// Tally is a cohort's row in its session's tally batch. Members behind one
// edge share its delivery, so the fluid aggregate tallies each slot once,
// in the ring a kernel receiver uses, and reads one SlotView per bucket of
// members from it.
type Tally struct {
	b  *dlBatch
	mi int
}

// NewTally joins a row to sess's batch on sched.
func NewTally(sched *sim.Scheduler, sess *core.Session) Tally {
	b := dlBatchFor(sched, sess)
	return Tally{b: b, mi: b.join()}
}

// Observe tallies one data packet.
func (t Tally) Observe(h *packet.FLIDHeader) { t.b.observe(t.mi, h) }

// Close marks slot evaluated: its late packets are strays from now on.
func (t Tally) Close(slot uint32) { t.b.evalFloor[t.mi] = slot + 1 }

// View reads the finished slot for a subscriber of lvl groups with
// probation clocks joined, indexed by group.
func (t Tally) View(slot uint32, lvl int, joined []uint32) SlotView {
	return t.b.view(t.mi, slot, lvl, joined)
}

// Accumulator is one slot's DELTA receiver state — the part of a key
// receiver that differs between instantiations (Figure 4 layered nonces,
// Shamir shares): it observes the slot's packets and concludes with the
// keys the receiver's congestion state entitles it to. Begin resets it in
// place for reuse.
type Accumulator interface {
	Begin(slot uint32)
	Observe(h *packet.FLIDHeader, marked bool)
	Finish(top int, ecnMode bool) delta.Outcome
}

// Layered builds the Figure 4 accumulator FLID-DS runs.
func Layered(n int) Accumulator { return delta.NewLayeredReceiver(n) }

// dsBatch is the struct-of-arrays state of every key receiver attached to
// one session. The tally ring holds the DELTA accumulators of the slots in
// flight, leased from idle on a slot's first packet and given back when the
// slot is evaluated (Begin resets a leased one in place).
type dsBatch struct {
	n      int
	newAcc func(n int) Accumulator
	idle   []Accumulator // given back by evaluated slots, ready to lease

	// Per member:
	evalFloor []uint32
	joined    []uint32   // stride n+1, as dlBatch's
	inForce   [][2]int32 // the level in force during slot s is inForce[mi][s&1]

	// DELTA receiver ring, stride tallyW; dtag is slot+1, 0 when empty.
	dtag  []uint32
	drecv []Accumulator
}

type dsKey struct{ sess *core.Session }

func dsBatchFor(sched *sim.Scheduler, sess *core.Session, newAcc func(n int) Accumulator) *dsBatch {
	return sched.Anchor(dsKey{sess}, func() any {
		return &dsBatch{n: sess.Rates.N, newAcc: newAcc}
	}).(*dsBatch)
}

func (b *dsBatch) join() int {
	mi := len(b.evalFloor)
	b.evalFloor = extend(b.evalFloor, 1)
	b.joined = extend(b.joined, b.n+1)
	b.inForce = extend(b.inForce, 1)
	b.dtag = extend(b.dtag, tallyW)
	b.drecv = extend(b.drecv, tallyW)
	return mi
}

// deltaFor returns member mi's accumulating DELTA receiver for slot,
// claiming (and resetting) the ring entry on first contact. An empty entry
// leases an idle accumulator, or builds one when none is idle; an entry
// still holding a slot that will never be evaluated (its receiver is
// stopped) resets that one.
func (b *dsBatch) deltaFor(mi int, slot uint32) Accumulator {
	ri := mi*tallyW + int(slot&(tallyW-1))
	dr := b.drecv[ri]
	if b.dtag[ri] != slot+1 {
		b.dtag[ri] = slot + 1
		if dr == nil {
			if last := len(b.idle) - 1; last >= 0 {
				dr = b.idle[last]
				b.idle[last] = nil
				b.idle = b.idle[:last]
			} else {
				dr = b.newAcc(b.n)
			}
			b.drecv[ri] = dr
		}
		dr.Begin(slot)
	}
	return dr
}

// take empties the ring entry of slot and returns the DELTA receiver that
// accumulated it, or nil when no packet of the slot arrived — the signal
// the evaluator reads as a fully lost slot. The caller gives a non-nil
// receiver back once it is done with its Outcome.
func (b *dsBatch) take(mi int, slot uint32) Accumulator {
	ri := mi*tallyW + int(slot&(tallyW-1))
	if b.dtag[ri] != slot+1 {
		return nil
	}
	dr := b.drecv[ri]
	b.dtag[ri], b.drecv[ri] = 0, nil
	return dr
}

// giveBack returns a taken accumulator to the idle list. Its Outcome's
// Keys alias its scratch, so it must come after they have been copied.
func (b *dsBatch) giveBack(dr Accumulator) {
	if dr != nil {
		b.idle = append(b.idle, dr)
	}
}

// releaseBefore gives back member mi's accumulators of slots before slot
// and raises its evaluation floor to slot: a receiver stopped or (re)started
// during slot never evaluates an earlier one, so their packets are strays.
func (b *dsBatch) releaseBefore(mi int, slot uint32) {
	b.evalFloor[mi] = max(b.evalFloor[mi], slot)
	for ri := mi * tallyW; ri < (mi+1)*tallyW; ri++ {
		if t := b.dtag[ri]; t != 0 && t-1 < slot {
			b.giveBack(b.drecv[ri])
			b.dtag[ri], b.drecv[ri] = 0, nil
		}
	}
}
