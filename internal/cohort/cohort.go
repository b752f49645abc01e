// Package cohort models a homogeneous population of well-behaved layered
// receivers behind one shared edge as a fluid aggregate: a subscription-level
// distribution plus a member count, instead of N per-packet receiver objects.
//
// The aggregate advances with exactly the FLID-DL/DS slot rules individual
// receivers run (internal/flid: decrease on loss, increase on signal, join
// probation of two slots), applied to buckets of members that share a level
// and probation state. Because multicast delivers one copy of each group per
// edge regardless of how many receivers sit behind it, per-slot work is
// O(groups + buckets) — independent of the member count — which is what
// makes million-receiver sessions simulable. Attackers and receivers on
// contested paths stay exact per-packet objects; cohorts coexist with them
// in the same experiment and share the same bottlenecks, graft machinery and
// slot clock.
package cohort

import (
	"fmt"

	"deltasigma/internal/core"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
)

// slotTally accumulates per-group receptions for one data slot, shared by
// every member of the cohort (they all sit behind the same delivery point).
type slotTally struct {
	got    []int
	expect []int
	inc    int
}

func newSlotTally(n int) *slotTally {
	return &slotTally{got: make([]int, n), expect: make([]int, n)}
}

func (t *slotTally) observe(h *packet.FLIDHeader) {
	g := int(h.Group)
	if g < 1 || g > len(t.got) {
		return
	}
	t.got[g-1]++
	t.expect[g-1] = int(h.Count)
	if int(h.IncreaseTo) > t.inc {
		t.inc = int(h.IncreaseTo)
	}
}

// lost reports whether group g (1-based) is missing packets.
func (t *slotTally) lost(g int) bool {
	return t.got[g-1] == 0 || t.got[g-1] < t.expect[g-1]
}

// bucket is a set of members sharing one subscription level and one join
// history. Absent churn the whole cohort is a single bucket moving in
// lockstep; churn splits off fresh level-1 buckets that climb back up and
// merge again once their probation state coincides with an existing bucket.
type bucket struct {
	count      uint64
	level      int
	joinedSlot []uint32 // first fully counted data slot per group
}

// pendingEqual reports whether two buckets will behave identically from the
// next slot on: same level and the same probation deadline for every group
// whose join is not yet fully observed. Past deadlines are irrelevant.
func (b *bucket) pendingEqual(o *bucket, slot uint32) bool {
	if b.level != o.level {
		return false
	}
	for g := 1; g <= b.level; g++ {
		bp, op := b.joinedSlot[g], o.joinedSlot[g]
		if bp <= slot+1 {
			bp = 0
		}
		if op <= slot+1 {
			op = 0
		}
		if bp != op {
			return false
		}
	}
	return true
}

// Agent is the running aggregate: it manages the cohort's group membership
// through the private edge's plain-IGMP gatekeeper (the cohort models
// honest receivers, so key enforcement against it is moot), tallies the
// per-edge delivery of each slot once, and advances the level distribution.
type Agent struct {
	Sess *core.Session
	host *netsim.Host
	edge *mcast.Router
	igmp *mcast.Client

	members uint64 // configured population
	offline uint64 // members currently left
	buckets []*bucket
	subTop  int // highest group subscribed at the edge
	running bool
	loop    *core.SlotLoop
	tallies map[uint32]*slotTally
	idle    sim.Freelist[slotTally] // evaluated tallies, cleared, for the slots to come

	// feedbackDst, when nonzero, is the unicast address (the session
	// source) the cohort reports its slot status to — one FeedbackHeader
	// per slot, the leaf input of hierarchical consolidation.
	feedbackDst packet.Addr

	// Meter records delivered session bytes summed across members: each
	// arriving packet counts once per member subscribed to its group.
	Meter *stats.Meter
	// Decreases and Increases total per-member subscription moves.
	Decreases, Increases uint64
	// ReportsSent counts feedback reports emitted.
	ReportsSent uint64
}

// New builds a cohort of n members on host behind the private edge router.
// The edge gets a plain-IGMP gatekeeper installed; the agent owns all
// graft/prune activity on it.
func New(host *netsim.Host, edge *mcast.Router, sess *core.Session, n uint64) *Agent {
	if n == 0 {
		panic("cohort: member count must be positive")
	}
	if sess.Rates.N < 1 {
		panic(fmt.Sprintf("cohort: invalid session schedule %+v", sess.Rates))
	}
	mcast.NewIGMP(edge)
	a := &Agent{
		Sess:    sess,
		host:    host,
		edge:    edge,
		igmp:    mcast.NewClient(host, edge.Addr()),
		members: n,
		offline: n,
		tallies: make(map[uint32]*slotTally),
		Meter:   stats.NewMeter(sim.Second),
	}
	a.loop = core.NewSlotLoop(host.Scheduler(), sess, a.onEval)
	host.Handle(packet.ProtoFLID, a.onData)
	return a
}

// SetFeedbackDst aims the cohort's per-slot feedback reports at dst
// (normally the session source's unicast address); zero disables reporting.
func (a *Agent) SetFeedbackDst(dst packet.Addr) { a.feedbackDst = dst }

// Edge returns the cohort's private edge router.
func (a *Agent) Edge() *mcast.Router { return a.edge }

// Host returns the cohort's delivery host.
func (a *Agent) Host() *netsim.Host { return a.host }

// Members returns the configured population size.
func (a *Agent) Members() uint64 { return a.members }

// Online returns how many members are currently joined.
func (a *Agent) Online() uint64 {
	var n uint64
	for _, b := range a.buckets {
		n += b.count
	}
	return n
}

// Offline returns how many members are currently left.
func (a *Agent) Offline() uint64 { return a.offline }

// Accounted returns Online()+Offline(); the cohort-conservation invariant
// requires it to equal Members() at all times.
func (a *Agent) Accounted() uint64 { return a.Online() + a.offline }

// Level reports the highest occupied subscription level (0 when every
// member is offline), the cohort analogue of ReceiverAgent.Level.
func (a *Agent) Level() int {
	top := 0
	for _, b := range a.buckets {
		if b.level > top {
			top = b.level
		}
	}
	return top
}

// Levels returns the member count per subscription level; index 0 holds the
// offline members and index g the members subscribed to groups 1..g.
func (a *Agent) Levels() []uint64 {
	out := make([]uint64, a.Sess.Rates.N+1)
	out[0] = a.offline
	for _, b := range a.buckets {
		if b.level >= 1 && b.level < len(out) {
			out[b.level] += b.count
		}
	}
	return out
}

// MeanLevel returns the average subscription level across all members,
// offline members counting as level 0.
func (a *Agent) MeanLevel() float64 {
	var sum uint64
	for _, b := range a.buckets {
		sum += b.count * uint64(b.level)
	}
	return float64(sum) / float64(a.members)
}

// Joined reports whether any member is currently online.
func (a *Agent) Joined() bool { return len(a.buckets) > 0 }

// Start brings every offline member online at the minimal level, exactly an
// individual receiver's Start scaled by the member count.
func (a *Agent) Start() {
	cur := a.Sess.SlotAt(a.host.Scheduler().Now())
	if !a.running {
		a.running = true
		a.loop.Schedule(cur)
	}
	if a.offline == 0 {
		return
	}
	a.admit(a.offline, cur)
	a.offline = 0
	a.resubscribe(cur)
}

// Stop takes every member offline and leaves every subscribed group.
func (a *Agent) Stop() {
	if !a.running {
		return
	}
	a.running = false
	a.offline = a.members
	a.buckets = a.buckets[:0]
	for g := 1; g <= a.subTop; g++ {
		a.igmp.Leave(a.Sess.GroupAddr(g))
	}
	a.subTop = 0
}

// Toggle flips one member between joined and left; idx must be uniform in
// [0, Members()). Members are exchangeable, so mapping low indexes to the
// offline pool and the rest across buckets by cumulative count makes a
// uniform idx a uniform member choice — the cohort analogue of PoissonChurn
// toggling one uniformly chosen individual receiver.
func (a *Agent) Toggle(idx uint64) {
	if idx >= a.members {
		return
	}
	cur := a.Sess.SlotAt(a.host.Scheduler().Now())
	if idx < a.offline {
		if !a.running {
			a.running = true
			a.loop.Schedule(cur)
		}
		a.offline--
		a.admit(1, cur)
		a.resubscribe(cur)
		return
	}
	idx -= a.offline
	for i, b := range a.buckets {
		if idx < b.count {
			b.count--
			if b.count == 0 {
				a.buckets = append(a.buckets[:i], a.buckets[i+1:]...)
			}
			a.offline++
			a.resubscribe(cur)
			return
		}
		idx -= b.count
	}
}

// admit adds n members at the minimal level with fresh join probation,
// merging into an equivalent bucket when one exists.
func (a *Agent) admit(n uint64, cur uint32) {
	nb := &bucket{count: n, level: 1, joinedSlot: make([]uint32, a.Sess.Rates.N+1)}
	nb.joinedSlot[1] = cur + 1
	for _, b := range a.buckets {
		if b.pendingEqual(nb, cur) {
			b.count += n
			return
		}
	}
	a.buckets = append(a.buckets, nb)
}

// resubscribe diffs the edge subscription against the distribution's top
// level, issuing bulk joins/leaves through the IGMP client — the cohort's
// whole population rides one graft per group.
func (a *Agent) resubscribe(cur uint32) {
	top := a.Level()
	for g := a.subTop + 1; g <= top; g++ {
		a.igmp.Join(a.Sess.GroupAddr(g))
	}
	for g := a.subTop; g > top; g-- {
		a.igmp.Leave(a.Sess.GroupAddr(g))
	}
	a.subTop = top
}

// onEval fires once per slot on the loop's reusable timer.
func (a *Agent) onEval(slot uint32) bool {
	if !a.running {
		return false
	}
	a.evaluate(slot)
	return true
}

// subscribers returns how many members are subscribed to group g.
func (a *Agent) subscribers(g int) uint64 {
	var n uint64
	for _, b := range a.buckets {
		if b.level >= g {
			n += b.count
		}
	}
	return n
}

func (a *Agent) onData(pkt *packet.Packet) {
	h, ok := pkt.Header.(*packet.FLIDHeader)
	if !ok || h.Session != a.Sess.ID {
		return
	}
	// One wire packet stands in for a delivery to every member subscribed
	// to its group: the aggregate meter advances by count × size.
	if n := a.subscribers(int(h.Group)); n > 0 {
		a.Meter.Add(a.host.Scheduler().Now(), int(n)*pkt.Size)
	}
	t := a.tallies[h.Slot]
	if t == nil {
		t = a.tally()
		a.tallies[h.Slot] = t
	}
	t.observe(h)
}

// tally returns an empty tally, an idle one when there is one.
func (a *Agent) tally() *slotTally {
	t := a.idle.Get()
	if t.got == nil {
		*t = *newSlotTally(a.Sess.Rates.N)
	}
	return t
}

// retire empties t and keeps it for a later slot.
func (a *Agent) retire(t *slotTally) {
	clear(t.got)
	clear(t.expect)
	t.inc = 0
	a.idle.Put(t)
}

// evaluate applies the FLID subscription rules to the finished slot, bucket
// by bucket, then reconciles the edge subscription and reports upstream.
func (a *Agent) evaluate(slot uint32) {
	t := a.tallies[slot]
	delete(a.tallies, slot)
	for s, stray := range a.tallies {
		if s+4 < slot {
			delete(a.tallies, s)
			a.retire(stray)
		}
	}
	if t == nil {
		t = a.tally() // nothing arrived: every group reads as lost
	}
	defer a.retire(t)
	if len(a.buckets) == 0 {
		return
	}

	congested := false
	for _, b := range a.buckets {
		loss := false
		for g := 1; g <= b.level; g++ {
			if b.joinedSlot[g] > slot {
				continue // not yet a full member for this slot
			}
			if t.lost(g) {
				loss = true
				break
			}
		}
		switch {
		case loss && b.level > 1:
			// Rule 2: a congested receiver of g groups must drop group g.
			b.level--
			a.Decreases += b.count
			congested = true
		case loss:
			congested = true
		case t.inc >= b.level+1 && b.level < a.Sess.Rates.N:
			// Rule 3: an authorized uncongested receiver adds one group.
			b.level++
			b.joinedSlot[b.level] = slot + 2
			a.Increases += b.count
		}
	}
	a.mergeBuckets(slot)
	a.resubscribe(slot)
	a.report(slot, congested)
}

// mergeBuckets coalesces buckets that have become behaviourally identical,
// keeping the bucket list bounded regardless of churn history.
func (a *Agent) mergeBuckets(slot uint32) {
	out := a.buckets[:0]
	for _, b := range a.buckets {
		merged := false
		for _, o := range out {
			if o.pendingEqual(b, slot) {
				o.count += b.count
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, b)
		}
	}
	a.buckets = out
}

// report emits the cohort's per-slot feedback leaf report.
func (a *Agent) report(slot uint32, congested bool) {
	online := a.Online()
	if online > 0 && a.Sess.SendReport(a.host, a.feedbackDst, slot, online, a.Level(), congested) {
		a.ReportsSent++
	}
}
