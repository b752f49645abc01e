package flid

import (
	"deltasigma/internal/core"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
)

// DSReceiver is the key-receiver kernel every DELTA+SIGMA-protected
// layered protocol runs: it feeds each data slot to a DELTA Accumulator,
// derives the keys its congestion state entitles it to, and subscribes
// through SIGMA for the corresponding access slot (data slot + 2, Figure
// 2). Its decisions form one chain: each starts from the latest decision,
// so only the two for the slots in flight are kept. With the Layered
// accumulator it is the well-behaved FLID-DS receiver — congestion
// control decisions exactly FLID-DL's, decrease on loss, increase on
// signal, but enacted through keys instead of trust; with a Shamir
// accumulator it is the loss-threshold receiver. Like the tally kernel,
// its per-slot state lives in the session's struct-of-arrays batch; the
// accumulators themselves are leased from the batch for the slots in
// flight and given back as each slot is evaluated.
type DSReceiver struct {
	Sess   *core.Session
	host   *netsim.Host
	client *sigma.Client

	b       *dsBatch
	mi      int
	running bool
	loop    *core.SlotLoop
	meter   *stats.Meter
	// Message scratch, reused every slot: the SIGMA client copies what it
	// sends.
	pairs []packet.AddrKey
	addrs []packet.Addr

	// Decreases, Increases, Rejoins count subscription moves.
	Decreases, Increases, Rejoins uint64
}

// NewDSReceiver builds a key receiver on host against the SIGMA edge
// router at routerAddr, accumulating each slot with what newAcc builds
// (every receiver of a session must pass the same instantiation).
func NewDSReceiver(host *netsim.Host, sess *core.Session, routerAddr packet.Addr, newAcc func(n int) Accumulator) *DSReceiver {
	r := &DSReceiver{
		Sess:   sess,
		host:   host,
		client: sigma.NewClient(host, routerAddr),
		b:      dsBatchFor(host.Scheduler(), sess, newAcc),
		meter:  stats.NewMeter(sim.Second),
		pairs:  make([]packet.AddrKey, 0, sess.Rates.N),
		addrs:  make([]packet.Addr, 0, sess.Rates.N),
	}
	r.mi = r.b.join()
	r.loop = core.NewSlotLoop(host.Scheduler(), sess, r.onEval)
	host.Handle(packet.ProtoFLID, r.onData)
	return r
}

// Level reports the latest decided subscription level, the head of the
// decision chain: the decision for the slot after the last one evaluated.
func (r *DSReceiver) Level() int {
	return int(r.b.inForce[r.mi][(r.b.evalFloor[r.mi]+1)&1])
}

// Meter returns the meter of delivered session bytes.
func (r *DSReceiver) Meter() *stats.Meter { return r.meter }

// Client exposes the SIGMA client (attacker subclassing and tests).
func (r *DSReceiver) Client() *sigma.Client { return r.client }

// Start admits the receiver into the session via a SIGMA session-join.
func (r *DSReceiver) Start() {
	if r.running {
		return
	}
	r.running = true
	sched := r.host.Scheduler()
	cur := r.Sess.SlotAt(sched.Now())
	r.b.releaseBefore(r.mi, cur)
	r.b.inForce[r.mi] = [2]int32{1, 1}
	r.b.joined[r.mi*(r.b.n+1)+1] = cur + 1
	r.client.SessionJoin(r.Sess.BaseAddr)
	r.loop.Schedule(cur)
}

// Stop leaves the session.
func (r *DSReceiver) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.client.Unsubscribe(r.Sess.Addrs())
	r.b.inForce[r.mi] = [2]int32{}
	r.b.releaseBefore(r.mi, r.Sess.SlotAt(r.host.Scheduler().Now()))
}

// onEval fires once per slot, batched behind the session's slot driver.
func (r *DSReceiver) onEval(slot uint32) bool {
	if !r.running {
		return false
	}
	r.evaluate(slot)
	return true
}

func (r *DSReceiver) onData(pkt *packet.Packet) {
	h, ok := pkt.Header.(*packet.FLIDHeader)
	if !ok || h.Session != r.Sess.ID {
		return
	}
	r.meter.Add(r.host.Scheduler().Now(), pkt.Size)
	if h.Slot < r.b.evalFloor[r.mi] {
		return // stray from an already evaluated slot; never read
	}
	r.b.deltaFor(r.mi, h.Slot).Observe(h, pkt.ECN)
}

// evaluate runs the DELTA receiver conclusion for the finished data slot
// and decides the level for the access slot it guards, s+2. Decisions form
// one chain: the decision for s+2 starts from the head, the decision
// already made for s+1, and moves only on what slot s showed — up on an
// increase signal, down on congestion. The level in force during slot s
// is read only to count that slot's packets. An upgrade decided at s−1 is
// held although slot s carried no packets of the new group, so no key for
// it: SIGMA's two-slot grace forwards that one access slot, and evaluating
// s+1 yields the key. The slot's accumulator goes back to the batch on
// every path.
func (r *DSReceiver) evaluate(slot uint32) {
	inForce := &r.b.inForce[r.mi]
	next := r.decide(slot, int(inForce[slot&1]), int(inForce[(slot+1)&1]))
	inForce[core.AccessSlot(slot)&1] = int32(next)
}

// decide returns the level for slot+2, given lvl, the level in force
// during slot, and head, the decision for slot+1.
func (r *DSReceiver) decide(slot uint32, lvl, head int) int {
	b, mi := r.b, r.mi
	dr := b.take(mi, slot)
	b.evalFloor[mi] = slot + 1

	// Only groups fully observed for the whole slot count toward the
	// evaluation; newer grants are still covered by SIGMA's grace window.
	joined := b.joined[mi*(b.n+1):]
	effTop := 0
	for g := 1; g <= lvl; g++ {
		if joined[g] <= slot {
			effTop = g
		} else {
			break
		}
	}
	if effTop == 0 || dr == nil {
		b.giveBack(dr)
		if dr == nil && effTop > 0 {
			// A full slot passed with zero packets: the session may be
			// idle or access lost entirely — rejoin from the floor.
			return r.rejoin()
		}
		return head // nothing fully observed yet (just joined): wait for a full slot
	}

	out := dr.Finish(effTop, false)
	if out.Next == 0 {
		b.giveBack(dr)
		return r.rejoin()
	}

	r.pairs = r.Sess.KeyPairs(r.pairs[:0], out.First, out.Keys)
	b.giveBack(dr) // after the copy: out.Keys aliases dr's scratch
	r.client.Subscribe(core.AccessSlot(slot), r.pairs)

	switch {
	case out.Congested && out.Next < head:
		// Abandon everything above the entitled level, a held upgrade
		// included, and tell the router immediately.
		r.addrs = r.addrs[:0]
		for g := out.Next + 1; g <= head; g++ {
			r.addrs = append(r.addrs, r.Sess.GroupAddr(g))
		}
		r.client.Unsubscribe(r.addrs)
		r.Decreases++
		return out.Next
	case !out.Congested && out.Next > head:
		// Upgrade: packets will start flowing in the next slot; count the
		// group fully from the slot after that.
		joined[out.Next] = slot + 2
		r.Increases++
		return out.Next
	}
	return head
}

// rejoin re-enters the session keylessly from the minimal group and
// returns that level. The receiver may still be receiving group 1 under
// the session-join grace window, so joined is left alone: the very next
// clean slot yields a fresh key and clears probation before the grace
// expires — an isolated loss at the minimal level costs nothing, while
// sustained congestion still runs into the §3.2.2 penalty.
func (r *DSReceiver) rejoin() int {
	r.Rejoins++
	r.client.SessionJoin(r.Sess.BaseAddr)
	return 1
}

// KeyReceiver is the well-behaved receiver a key attacker keeps running:
// a DSReceiver, or a replicated receiver.
type KeyReceiver interface {
	Start()
	Stop()
	Level() int
	Meter() *stats.Meter
	Client() *sigma.Client
}

// KeyAttacker attacks a DELTA+SIGMA-protected session under any keying: it
// keeps a key receiver on its fair share (the attacker still wants the
// data) beside the shared sigma.GuessAttack engine — guessed keys for every
// group above that share each slot plus plain IGMP joins the SIGMA router
// ignores (§4.2). A guess must hit a key exactly, so it succeeds with
// probability 2^−b under every keying.
type KeyAttacker struct {
	KeyReceiver
	*sigma.GuessAttack
}

// NewKeyAttacker turns r, a receiver of sess, into an attacker guessing
// with rng.
func NewKeyAttacker(sess *core.Session, r KeyReceiver, rng *sim.RNG) *KeyAttacker {
	return &KeyAttacker{
		KeyReceiver: r,
		GuessAttack: sigma.NewGuessAttack(sess, r.Client(), r.Level, rng),
	}
}
