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
// 2). With the Layered accumulator it is the well-behaved FLID-DS
// receiver — congestion control decisions exactly FLID-DL's, decrease on
// loss, increase on signal, but enacted through keys instead of trust;
// with a Shamir accumulator it is the loss-threshold receiver. Like the
// tally kernel, its per-slot state lives in the session's
// struct-of-arrays batch; the accumulators themselves are reusable ring
// entries reset in place.
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
	}
	r.mi = r.b.join()
	r.loop = core.NewSlotLoop(host.Scheduler(), sess, r.onEval)
	host.Handle(packet.ProtoFLID, r.onData)
	return r
}

// Level reports the latest decided subscription level.
func (r *DSReceiver) Level() int { return int(r.b.level[r.mi]) }

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
	r.b.level[r.mi] = 1
	r.b.setLevelAt(r.mi, cur, 1)
	r.b.joined[r.mi*(r.b.n+2)+1] = cur + 1
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
	r.b.level[r.mi] = 0
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
// and subscribes for the access slot it guards.
func (r *DSReceiver) evaluate(slot uint32) {
	b, mi := r.b, r.mi
	dr := b.finished(mi, slot)
	b.evalFloor[mi] = slot + 1
	b.gcLevels(mi, slot)

	lvl := b.levelAt(mi, slot)
	if lvl == 0 {
		lvl = 1
	}
	// Only groups fully observed for the whole slot count toward the
	// evaluation; newer grants are still covered by SIGMA's grace window.
	joined := b.joined[mi*(b.n+2):]
	effTop := 0
	for g := 1; g <= lvl; g++ {
		if joined[g] <= slot {
			effTop = g
		} else {
			break
		}
	}
	if effTop == 0 || dr == nil {
		// Nothing fully observed yet (just joined): wait for a full slot.
		if dr == nil && effTop > 0 {
			// A full slot passed with zero packets: the session may be
			// idle or access lost entirely — rejoin from the floor.
			r.rejoin(slot)
			return
		}
		// Carry the latest decision, not the level active during the
		// evaluated slot — mid-upgrade they differ.
		b.setLevelAt(mi, core.AccessSlot(slot), int(b.level[mi]))
		return
	}

	out := dr.Finish(effTop, false)
	if out.Next == 0 {
		r.rejoin(slot)
		return
	}

	r.pairs = r.Sess.KeyPairs(r.pairs[:0], out.First, out.Keys)
	r.client.Subscribe(core.AccessSlot(slot), r.pairs)

	next := out.Next
	if out.Congested {
		// Abandon anything above the entitled level, including pending
		// upgrades, and tell the router immediately.
		if next < lvl {
			r.addrs = r.addrs[:0]
			for g := next + 1; g <= lvl; g++ {
				r.addrs = append(r.addrs, r.Sess.GroupAddr(g))
			}
			r.client.Unsubscribe(r.addrs)
			r.Decreases++
		}
	} else {
		if next > effTop {
			// Upgrade: packets will start flowing in the next slot; count
			// the group fully from the slot after that.
			joined[next] = slot + 2
			r.Increases++
		}
		// A pending (granted but not yet fully observed) group stays.
		if lvl > next {
			next = lvl
		}
	}
	b.level[mi] = int32(next)
	b.setLevelAt(mi, core.AccessSlot(slot), next)
}

// rejoin re-enters the session keylessly from the minimal group. The
// receiver may still be receiving group 1 under the session-join grace
// window, so joined is left alone: the very next clean slot yields a
// fresh key and clears probation before the grace expires — an isolated
// loss at the minimal level costs nothing, while sustained congestion still
// runs into the §3.2.2 penalty.
func (r *DSReceiver) rejoin(slot uint32) {
	r.Rejoins++
	r.b.level[r.mi] = 1
	r.b.setLevelAt(r.mi, core.AccessSlot(slot), 1)
	r.client.SessionJoin(r.Sess.BaseAddr)
}

// DSAttacker attacks a DELTA+SIGMA-protected layered session: it keeps a
// legitimate key receiver running (its fair share — the attacker still
// wants the data) while running the shared sigma.GuessAttack engine —
// guessed keys for every higher group each slot plus plain IGMP joins the
// SIGMA router ignores (§4.2, protection against attacks on SIGMA).
// Against the Shamir instantiation a guess must hit the reconstructed level
// key exactly, so the success probability per guess is 2^−b either way.
type DSAttacker struct {
	*DSReceiver
	*sigma.GuessAttack
}

// NewDSAttacker turns r into an attacker guessing with rng.
func NewDSAttacker(r *DSReceiver, rng *sim.RNG) *DSAttacker {
	return &DSAttacker{
		DSReceiver:  r,
		GuessAttack: sigma.NewGuessAttack(r.Sess, r.client, r.Level, rng),
	}
}
