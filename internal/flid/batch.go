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
// members of a slot clock in one pass over adjacent rows.
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
const lvlW = 16  // FLID-DS level-by-slot ring width, power of two

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
	b.level = append(b.level, 0)
	b.evalFloor = append(b.evalFloor, 0)
	b.joined = append(b.joined, make([]uint32, b.n+1)...)
	b.tag = append(b.tag, make([]uint32, tallyW)...)
	b.inc = append(b.inc, make([]int32, tallyW)...)
	b.got = append(b.got, make([]int32, tallyW*b.n)...)
	b.expect = append(b.expect, make([]int32, tallyW*b.n)...)
	return mi
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
// one session. The tally ring holds reusable DELTA accumulators (Begin
// resets one in place); the level ring replaces the level-by-slot map with
// full-slot tags, where tag slot+1 distinguishes a recorded slot 0 from an
// empty entry.
type dsBatch struct {
	n      int
	newAcc func(n int) Accumulator

	// Per member:
	level     []int32
	evalFloor []uint32
	joined    []uint32 // stride n+2, as the map-based receiver sized it

	// DELTA receiver ring, stride tallyW; dtag is slot+1, 0 when empty.
	dtag  []uint32
	drecv []Accumulator

	// Level-in-force ring, stride lvlW; ltag is slot+1, 0 when empty.
	ltag []uint32
	lval []int32
}

type dsKey struct{ sess *core.Session }

func dsBatchFor(sched *sim.Scheduler, sess *core.Session, newAcc func(n int) Accumulator) *dsBatch {
	return sched.Anchor(dsKey{sess}, func() any {
		return &dsBatch{n: sess.Rates.N, newAcc: newAcc}
	}).(*dsBatch)
}

func (b *dsBatch) join() int {
	mi := len(b.level)
	b.level = append(b.level, 0)
	b.evalFloor = append(b.evalFloor, 0)
	b.joined = append(b.joined, make([]uint32, b.n+2)...)
	b.dtag = append(b.dtag, make([]uint32, tallyW)...)
	b.drecv = append(b.drecv, make([]Accumulator, tallyW)...)
	b.ltag = append(b.ltag, make([]uint32, lvlW)...)
	b.lval = append(b.lval, make([]int32, lvlW)...)
	return mi
}

// deltaFor returns member mi's accumulating DELTA receiver for slot,
// claiming (and resetting) the ring entry on first contact.
func (b *dsBatch) deltaFor(mi int, slot uint32) Accumulator {
	ri := mi*tallyW + int(slot&(tallyW-1))
	dr := b.drecv[ri]
	if b.dtag[ri] != slot+1 {
		b.dtag[ri] = slot + 1
		if dr == nil {
			dr = b.newAcc(b.n)
			b.drecv[ri] = dr
		}
		dr.Begin(slot)
	}
	return dr
}

// finished returns the DELTA receiver that accumulated slot, or nil when
// no packet of the slot arrived — the signal the evaluator reads as a
// fully lost slot.
func (b *dsBatch) finished(mi int, slot uint32) Accumulator {
	ri := mi*tallyW + int(slot&(tallyW-1))
	if b.dtag[ri] != slot+1 {
		return nil
	}
	return b.drecv[ri]
}

// setLevelAt records the subscription level in force from data slot slot.
func (b *dsBatch) setLevelAt(mi int, slot uint32, lvl int) {
	li := mi*lvlW + int(slot&(lvlW-1))
	b.ltag[li] = slot + 1
	b.lval[li] = int32(lvl)
}

// gcLevels drops level records older than the walk horizon, mirroring the
// map-based receiver's per-evaluate garbage collection (delete s+8 < slot)
// so levelAt can never resurrect a record the map would have discarded.
func (b *dsBatch) gcLevels(mi int, slot uint32) {
	base := mi * lvlW
	for i := base; i < base+lvlW; i++ {
		if t := b.ltag[i]; t != 0 && t-1+8 < slot {
			b.ltag[i] = 0
		}
	}
}

// levelAt returns the subscription level in force during a data slot,
// walking back to the most recent decision exactly as the map-based
// receiver did: sixteen slots of history, then the latest decided level.
func (b *dsBatch) levelAt(mi int, slot uint32) int {
	base := mi * lvlW
	for s := slot; ; s-- {
		if b.ltag[base+int(s&(lvlW-1))] == s+1 {
			return int(b.lval[base+int(s&(lvlW-1))])
		}
		if s == 0 {
			return 1
		}
		if slot-s > 16 {
			return int(b.level[mi])
		}
	}
}
