package cohort

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// testAgent assembles a minimal dumbbell with one cohort of n members hanging
// off the right edge, without running the scheduler: the white-box tests
// below drive the aggregate's slot machinery directly.
func testAgent(t *testing.T, n uint64) (*topo.Tree, *core.Session, *Agent) {
	t.Helper()
	d := topo.Spec{Kind: "dumbbell", CapacitiesBps: []int64{250_000}}.Build(1)
	src := d.AttachSource("src")
	p := d.AttachCohort("cohort", -1)
	d.Finish()
	sess := &core.Session{
		ID:         1,
		BaseAddr:   packet.MulticastBase,
		Rates:      core.PaperSchedule(),
		SlotDur:    500 * sim.Millisecond,
		PacketSize: 576,
	}
	for _, addr := range sess.Addrs() {
		d.Multicast().SetSource(addr, src.ID())
	}
	return d, sess, New(p.Host, p.Edge, sess, n)
}

// deliver hands the agent got of count packets of group g in slot, the slot
// carrying increase signal inc.
func deliver(a *Agent, slot uint32, g, got, count, inc int) {
	for j := 1; j <= got; j++ {
		a.onData(packet.New(0, a.Sess.GroupAddr(g), a.Sess.PacketSize, &packet.FLIDHeader{
			Session: a.Sess.ID, Group: uint8(g), Slot: slot,
			Seq: uint16(j), Count: uint16(count), IncreaseTo: uint8(inc),
		}))
	}
}

// deliverFull delivers groups 1..upTo of slot in full, the slot signalling
// an increase to level inc.
func deliverFull(a *Agent, slot uint32, upTo, inc int) {
	for g := 1; g <= upTo; g++ {
		deliver(a, slot, g, 2, 2, inc)
	}
}

func TestPendingEqualNormalizesPastDeadlines(t *testing.T) {
	mk := func(level int, deadlines map[int]uint32) *bucket {
		b := &bucket{count: 1, level: level, joinedSlot: make([]uint32, 16)}
		for g, s := range deadlines {
			b.joinedSlot[g] = s
		}
		return b
	}
	const slot = 10
	// A deadline at or before slot+1 is already satisfied, so it must compare
	// equal to a zero deadline.
	a := mk(3, map[int]uint32{2: slot + 1, 3: slot})
	b := mk(3, map[int]uint32{})
	if !a.pendingEqual(b, slot) || !b.pendingEqual(a, slot) {
		t.Fatal("past probation deadlines should normalize to zero")
	}
	// A still-pending deadline is behavioural state and must keep buckets apart.
	c := mk(3, map[int]uint32{3: slot + 2})
	if a.pendingEqual(c, slot) {
		t.Fatal("future probation deadline compared equal to a satisfied one")
	}
	// Different levels never merge.
	if a.pendingEqual(mk(2, nil), slot) {
		t.Fatal("buckets at different levels compared equal")
	}
}

func TestAdmitMergesEquivalentBuckets(t *testing.T) {
	_, sess, a := testAgent(t, 100)
	// Fresh joiners are always level-1 with an immediately-satisfiable
	// probation deadline, and Rule 2 never fires below level 2, so level-1
	// admissions coalesce into one bucket no matter when they arrive.
	a.admit(40, 5)
	a.admit(10, 7)
	if len(a.buckets) != 1 || a.buckets[0].count != 50 {
		t.Fatalf("level-1 admissions: %d buckets, first count %d", len(a.buckets), a.buckets[0].count)
	}
	// Once a bucket has climbed, new joiners at level 1 must split off.
	a.buckets[0].level = 3
	a.admit(25, 9)
	if len(a.buckets) != 2 {
		t.Fatalf("admission against a climbed bucket should split: %d buckets", len(a.buckets))
	}
	a.admit(5, 9) // ...and further admissions land in the level-1 bucket
	if len(a.buckets) != 2 || a.buckets[1].count != 30 {
		t.Fatalf("repeat admission: %d buckets, level-1 count %d", len(a.buckets), a.buckets[1].count)
	}
	// Buckets whose pending state has converged merge back on evaluation.
	a.buckets[1].level = 3
	a.buckets[1].joinedSlot = make([]uint32, sess.Rates.N+1)
	a.mergeBuckets(20)
	if len(a.buckets) != 1 || a.buckets[0].count != 80 {
		t.Fatalf("post-probation merge: %d buckets, first count %d", len(a.buckets), a.buckets[0].count)
	}
}

// A merging admission — a churn rejoin landing in an existing level-1
// bucket — compares against the agent's probe and allocates nothing.
func TestMergingAdmitAllocatesNothing(t *testing.T) {
	_, _, a := testAgent(t, 100)
	a.admit(40, 5)
	if got := testing.AllocsPerRun(20, func() { a.admit(1, 7) }); got != 0 {
		t.Fatalf("a merging admit allocated %.0f times", got)
	}
	if len(a.buckets) != 1 || a.buckets[0].count != 61 {
		t.Fatalf("after 21 merging admits: %d buckets, first count %d; want 1 and 61", len(a.buckets), a.buckets[0].count)
	}
}

// A splitting admission — a rejoin with no level-1 bucket to land in —
// reuses a bucket given back by an earlier merge, joinedSlot array and all,
// so churn that splits and re-merges allocates nothing once warm.
func TestSplittingAdmitReusesBuckets(t *testing.T) {
	_, sess, a := testAgent(t, 100)
	a.buckets = []*bucket{{count: 60, level: 2, joinedSlot: make([]uint32, sess.Rates.N+1)}}
	slot := uint32(5)
	cycle := func() {
		a.admit(1, slot)                 // no level-1 bucket: splits
		mover{a, a.buckets[1]}.Add(slot) // the joiner climbs to level 2 ...
		a.mergeBuckets(slot + 2)         // ... and merges once its probation has passed
		slot += 4
	}
	cycle() // the first split allocates the bucket every later one reuses
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("a splitting admit allocated %.0f times", got)
	}
	if len(a.buckets) != 1 || a.buckets[0].count != 82 {
		t.Fatalf("after 22 split-and-merge cycles: %d buckets, first count %d; want 1 and 82", len(a.buckets), a.buckets[0].count)
	}
}

func TestLevelsMeanLevelSubscribers(t *testing.T) {
	_, sess, a := testAgent(t, 100)
	a.offline = 40
	a.buckets = []*bucket{
		{count: 50, level: 1, joinedSlot: make([]uint32, sess.Rates.N+1)},
		{count: 10, level: 3, joinedSlot: make([]uint32, sess.Rates.N+1)},
	}
	lv := a.Levels()
	if lv[0] != 40 || lv[1] != 50 || lv[3] != 10 {
		t.Fatalf("Levels() = %v", lv)
	}
	if a.Level() != 3 {
		t.Fatalf("Level() = %d, want 3", a.Level())
	}
	if got, want := a.MeanLevel(), (50*1+10*3)/100.0; got != want {
		t.Fatalf("MeanLevel() = %v, want %v", got, want)
	}
	if a.subscribers(1) != 60 || a.subscribers(2) != 10 || a.subscribers(4) != 0 {
		t.Fatalf("subscribers: %d/%d/%d", a.subscribers(1), a.subscribers(2), a.subscribers(4))
	}
	if a.Online() != 60 || a.Offline() != 40 || a.Accounted() != 100 {
		t.Fatalf("online/offline/accounted: %d/%d/%d", a.Online(), a.Offline(), a.Accounted())
	}
}

// TestToggleConservesMembers drives a long pseudo-random toggle sequence and
// checks the conservation invariant the auditor enforces: every member is
// always accounted for, online or offline, no matter the churn history.
func TestToggleConservesMembers(t *testing.T) {
	const n = 1000
	_, _, a := testAgent(t, n)
	a.Start()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a.Toggle(x % n)
		if got := a.Accounted(); got != n {
			t.Fatalf("after %d toggles: accounted %d of %d", i+1, got, n)
		}
	}
	if a.Online() > n {
		t.Fatalf("online %d exceeds membership", a.Online())
	}
	// Out-of-range indexes are ignored, not misaccounted.
	a.Toggle(n)
	a.Toggle(n + 12345)
	if a.Accounted() != n {
		t.Fatalf("out-of-range toggle broke conservation: %d", a.Accounted())
	}
}

func TestEvaluateRuleDecreaseOnLoss(t *testing.T) {
	_, sess, a := testAgent(t, 80)
	a.buckets = []*bucket{{count: 80, level: 3, joinedSlot: make([]uint32, sess.Rates.N+1)}}
	a.subTop = 3
	// Group 3 saw half its packets: loss, so Rule 2 drops the bucket to 2.
	deliverFull(a, 9, 2, 0)
	deliver(a, 9, 3, 1, 2, 0)
	a.evaluate(9)
	if a.buckets[0].level != 2 || a.Decreases != 80 {
		t.Fatalf("level %d, decreases %d; want 2, 80", a.buckets[0].level, a.Decreases)
	}
	// A level-1 bucket under loss holds at 1: a receiver never leaves its
	// last group on congestion (Rule 2 applies only above the base layer).
	a.buckets[0].level = 1
	a.evaluate(10) // nothing received: total loss
	if a.buckets[0].level != 1 {
		t.Fatalf("base level dropped to %d", a.buckets[0].level)
	}
}

func TestEvaluateRuleIncreaseOnSignal(t *testing.T) {
	_, sess, a := testAgent(t, 60)
	a.buckets = []*bucket{{count: 60, level: 2, joinedSlot: make([]uint32, sess.Rates.N+1)}}
	a.subTop = 2
	// Clean slot with an increase signal to level 3: Rule 3 climbs and arms
	// the new group's two-slot join probation.
	deliverFull(a, 7, 2, 3)
	a.evaluate(7)
	b := a.buckets[0]
	if b.level != 3 || a.Increases != 60 {
		t.Fatalf("level %d, increases %d; want 3, 60", b.level, a.Increases)
	}
	if b.joinedSlot[3] != 9 {
		t.Fatalf("probation deadline %d, want slot+2 = 9", b.joinedSlot[3])
	}
	if a.subTop != 3 {
		t.Fatalf("edge subscription %d not reconciled to 3", a.subTop)
	}
	// The probationary group is exempt from the loss rule until its deadline:
	// a slot with group 3 missing entirely must not demote the bucket.
	deliverFull(a, 8, 2, 0)
	a.evaluate(8)
	if a.buckets[0].level != 3 {
		t.Fatalf("probationary group loss demoted bucket to %d", a.buckets[0].level)
	}
}

func TestEvaluateMissingTallyIsTotalLoss(t *testing.T) {
	_, sess, a := testAgent(t, 10)
	a.buckets = []*bucket{{count: 10, level: 4, joinedSlot: make([]uint32, sess.Rates.N+1)}}
	a.subTop = 4
	a.evaluate(42) // no packet of slot 42 arrived at all
	if a.buckets[0].level != 3 || a.Decreases != 10 {
		t.Fatalf("level %d, decreases %d; want 3, 10", a.buckets[0].level, a.Decreases)
	}
}

// A slot's verdict reads that slot's packets and nothing else: not a tally
// eight slots older left on the same ring entry, and not a late packet of
// a slot already evaluated. Both strays below carry a clean slot and an
// increase signal, so reading either would climb instead of drop.
func TestEvaluateGarbageCollectsStrayTallies(t *testing.T) {
	_, sess, a := testAgent(t, 10)
	a.buckets = []*bucket{{count: 10, level: 3, joinedSlot: make([]uint32, sess.Rates.N+1)}}
	a.subTop = 3
	deliverFull(a, 10, 3, 4) // a slot never evaluated
	a.evaluate(10 + 8)       // same ring entry, nothing of its own arrived
	if a.buckets[0].level != 2 || a.Decreases != 10 || a.Increases != 0 {
		t.Fatalf("slot 18 read slot 10's tally: level %d, decreases %d, increases %d", a.buckets[0].level, a.Decreases, a.Increases)
	}
	deliverFull(a, 18, 3, 4) // late packets of the slot just evaluated
	a.evaluate(18 + 8)
	if a.buckets[0].level != 1 || a.Decreases != 20 || a.Increases != 0 {
		t.Fatalf("slot 26 read slot 18's late packets: level %d, decreases %d, increases %d", a.buckets[0].level, a.Decreases, a.Increases)
	}
}

// TestStartStopLifecycle checks the bulk lifecycle against the subscription
// diff: Start brings the whole population online at the base level with one
// graft, Stop leaves every group and parks the members offline.
func TestStartStopLifecycle(t *testing.T) {
	d, _, a := testAgent(t, 500)
	d.Scheduler().At(0, a.Start)
	d.Scheduler().RunUntil(100 * sim.Millisecond)
	if a.Online() != 500 || a.Level() != 1 || a.subTop != 1 {
		t.Fatalf("after Start: online %d level %d subTop %d", a.Online(), a.Level(), a.subTop)
	}
	a.Stop()
	if a.Online() != 0 || a.Offline() != 500 || a.subTop != 0 || a.Joined() {
		t.Fatalf("after Stop: online %d offline %d subTop %d", a.Online(), a.Offline(), a.subTop)
	}
	if a.Accounted() != 500 {
		t.Fatalf("lifecycle broke conservation: %d", a.Accounted())
	}
}
