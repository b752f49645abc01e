package flid

import (
	"deltasigma/internal/core"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/stats"
)

// SlotView is what the kernel measured over one finished slot — the whole
// input of a Rule.
type SlotView struct {
	Slot uint32
	// Loss reports that some fully counted group missed packets; a slot
	// with no packet tallied at all is total loss.
	Loss bool
	// Inc is the slot's increase signal: the highest group an upgrade was
	// authorized to, 0 when none was seen.
	Inc int
	// Counted is false while every subscribed group is still on join
	// probation — the slot the receiver joined in, which it saw only part
	// of and therefore never reads as lossy.
	Counted bool
}

// Rule is a protocol's subscription decision (§3.1.1): called once per
// finished slot of a subscribed receiver, it enacts its verdict through
// the receiver's Drop, Add and Report. Everything else — membership, the
// tally ring, probation, the slot clock — is the kernel's.
type Rule func(r *Receiver, v SlotView)

// Mover is what FLIDRule moves: a kernel Receiver, or a cohort's bucket of
// members that share a level and a join history.
type Mover interface {
	Level() int
	Drop() bool
	Add(slot uint32)
}

// FLIDRule is FLID-DL's rule pair: a congested receiver of g groups drops
// group g (Rule 2; the minimal group is the session's floor), an
// authorized uncongested one adds a group (Rule 3).
func FLIDRule[M Mover](r M, v SlotView) {
	switch {
	case v.Loss:
		r.Drop()
	case v.Inc > r.Level():
		r.Add(v.Slot)
	}
}

// Receiver is the tally-receiver kernel every plain-IGMP protocol runs:
// it joins at the minimal level, tallies each slot's packets per group,
// and hands the finished slot to its Rule. With FLIDRule it is the
// well-behaved FLID-DL receiver. Per-slot state — subscription level,
// probation clocks, tallies — lives in the session's shared
// struct-of-arrays batch (see batch.go); the receiver itself is the index
// into it plus the pieces that stay per receiver: membership client,
// meter, move counters.
type Receiver struct {
	Sess *core.Session
	host *netsim.Host
	igmp *mcast.Client
	rule Rule

	b       *dlBatch
	mi      int
	running bool
	loop    *core.SlotLoop
	meter   *stats.Meter

	// Decreases and Increases count subscription moves; ReportsSent counts
	// feedback reports emitted.
	Decreases, Increases, ReportsSent uint64
}

// NewReceiver builds a kernel receiver on host driven by rule, managing
// membership through the edge router at routerAddr.
func NewReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr, rule Rule) *Receiver {
	r := &Receiver{
		Sess:  sess,
		host:  host,
		igmp:  mcast.NewClient(host, routerAddr),
		rule:  rule,
		b:     dlBatchFor(host.Scheduler(), sess),
		meter: new(stats.Meter),
	}
	r.mi = r.b.join()
	r.loop = core.NewSlotLoop(host.Scheduler(), sess, r.onEval)
	host.Handle(packet.ProtoFLID, r.onData)
	return r
}

// Level reports the current subscription level.
func (r *Receiver) Level() int { return int(r.b.level[r.mi]) }

// Meter returns the meter of delivered session bytes (the figures'
// throughput).
func (r *Receiver) Meter() *stats.Meter { return r.meter }

// Start joins the session at the minimal level.
func (r *Receiver) Start() {
	if r.running {
		return
	}
	r.running = true
	cur := r.Sess.SlotAt(r.host.Scheduler().Now())
	r.b.level[r.mi] = 1
	r.b.joined[r.mi*(r.b.n+1)+1] = cur + 1 // first fully observed slot
	r.igmp.Join(r.Sess.GroupAddr(1))
	r.loop.Schedule(cur)
}

// Stop leaves every group and halts evaluation — and with it the rule: a
// stopped receiver neither moves nor reports.
func (r *Receiver) Stop() {
	if !r.running {
		return
	}
	r.running = false
	for g := 1; g <= r.Level(); g++ {
		r.igmp.Leave(r.Sess.GroupAddr(g))
	}
	r.b.level[r.mi] = 0
}

// Drop leaves the top group and reports whether it did: at the minimal
// level the receiver stays, the base layer being the session's floor.
func (r *Receiver) Drop() bool {
	lvl := r.Level()
	if lvl <= 1 {
		return false
	}
	r.igmp.Leave(r.Sess.GroupAddr(lvl))
	r.b.level[r.mi]--
	r.Decreases++
	return true
}

// Add joins the next group after evaluating slot, unless already at the
// top. The join lands mid-slot+1, so the group counts fully from slot+2.
func (r *Receiver) Add(slot uint32) {
	lvl := r.Level() + 1
	if lvl > r.b.n {
		return
	}
	r.b.level[r.mi] = int32(lvl)
	r.b.joined[r.mi*(r.b.n+1)+lvl] = slot + 2
	r.igmp.Join(r.Sess.GroupAddr(lvl))
	r.Increases++
}

// Report unicasts the slot's status toward the session source — the
// per-slot feedback of the sender-adaptive protocols.
func (r *Receiver) Report(slot uint32, congested bool) {
	if r.Sess.SendReport(r.host, r.Sess.Src, slot, 1, r.Level(), congested) {
		r.ReportsSent++
	}
}

// onEval fires once per slot, batched behind the session's slot driver.
func (r *Receiver) onEval(slot uint32) bool {
	if !r.running {
		return false
	}
	r.evaluate(slot)
	return true
}

func (r *Receiver) onData(pkt *packet.Packet) {
	h, ok := pkt.Header.(*packet.FLIDHeader)
	if !ok || h.Session != r.Sess.ID {
		return
	}
	r.meter.Add(r.host.Scheduler().Now(), pkt.Size)
	r.b.observe(r.mi, h)
}

// evaluate reads the finished slot's tally and applies the rule.
func (r *Receiver) evaluate(slot uint32) {
	b, mi := r.b, r.mi
	b.evalFloor[mi] = slot + 1
	if lvl := r.Level(); lvl > 0 {
		r.rule(r, b.view(mi, slot, lvl, b.joined[mi*(b.n+1):]))
	}
}

// Inflator is the inflated-subscription misbehaver of §2.1 against any
// plain-IGMP protocol: it runs its kernel receiver normally until Inflate,
// then stops the rule, joins every group of the session through IGMP and
// ignores congestion — the Figure 1 attack. Stopping the rule also stops
// whatever the rule did besides moving: an inflated dsc receiver goes
// silent on the feedback channel, an mfcc one ignores its advertised share.
type Inflator struct {
	*Receiver
	inflated bool
}

// NewInflator turns r into an attacker.
func NewInflator(r *Receiver) *Inflator { return &Inflator{Receiver: r} }

// Inflate switches the receiver to full-subscription misbehaviour.
func (a *Inflator) Inflate() {
	if a.inflated {
		return
	}
	a.inflated = true
	// Stop() leaves the current groups; rejoin them all unconditionally.
	a.Receiver.Stop()
	for g := 1; g <= a.Sess.Rates.N; g++ {
		a.igmp.Join(a.Sess.GroupAddr(g))
	}
}

// Deflate calls the attack off (the dynamics layer's attacker-stop event):
// every full-subscription join is withdrawn and the well-behaved control
// loop restarts from the minimal level.
func (a *Inflator) Deflate() {
	if !a.inflated {
		return
	}
	a.inflated = false
	for g := 1; g <= a.Sess.Rates.N; g++ {
		a.igmp.Leave(a.Sess.GroupAddr(g))
	}
	a.Receiver.Start()
}

// Inflated reports whether the attack is active.
func (a *Inflator) Inflated() bool { return a.inflated }
