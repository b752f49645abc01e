package flid

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// rig is a dumbbell with one receiver host behind a plain-IGMP edge. The
// white-box tests below never run the scheduler: they hand packets to the
// host and evaluate slots directly.
func rig(t *testing.T) (*netsim.Host, *core.Session, packet.Addr) {
	t.Helper()
	d := topo.New(topo.PaperConfig(250_000, 1))
	d.AddSource("src")
	rcv := d.AddReceiver("rcv")
	d.Done()
	mcast.NewIGMP(d.Right)
	return rcv, session(1, 500*sim.Millisecond), d.Right.Addr()
}

// deliver hands the host got of count packets of group g in slot, the
// slot carrying increase signal inc.
func deliver(h *netsim.Host, sess *core.Session, slot uint32, g, got, count, inc int) {
	for j := 1; j <= got; j++ {
		h.Receive(packet.New(0, sess.GroupAddr(g), sess.PacketSize, &packet.FLIDHeader{
			Session: sess.ID, Group: uint8(g), Slot: slot,
			Seq: uint16(j), Count: uint16(count), IncreaseTo: uint8(inc),
		}), nil)
	}
}

// The kernel turns a slot's tally into the SlotView a rule sees, and
// FLIDRule turns the view into a move. Receivers start in slot 0, so slot 0
// is the probation slot of group 1 and later rows evaluate slot 5.
func TestKernelTallyAndFLIDRule(t *testing.T) {
	type fields struct {
		level int    // subscription level before the evaluated slot
		slot  uint32 // slot evaluated
		// got[g-1] of 4 packets of group g arrive; nil delivers nothing.
		got []int
		inc int
	}
	n := core.PaperSchedule().N
	full := func(upTo int) []int {
		out := make([]int, upTo)
		for i := range out {
			out[i] = 4
		}
		return out
	}
	tests := []struct {
		name      string
		fields    fields
		want      SlotView
		wantLevel int
	}{
		{"clean slot without signal stays", fields{3, 5, full(3), 0}, SlotView{Slot: 5, Counted: true}, 3},
		{"signal one above adds a group", fields{3, 5, full(3), 4}, SlotView{Slot: 5, Inc: 4, Counted: true}, 4},
		{"signal at the current level is no authorization", fields{3, 5, full(3), 3}, SlotView{Slot: 5, Inc: 3, Counted: true}, 3},
		{"loss in the top group drops it", fields{3, 5, []int{4, 4, 3}, 4}, SlotView{Slot: 5, Loss: true, Inc: 4, Counted: true}, 2},
		{"a group heard but never counted is lost", fields{2, 5, []int{4, 0}, 0}, SlotView{Slot: 5, Loss: true, Counted: true}, 1},
		{"level 1 + loss stays", fields{1, 5, []int{2}, 0}, SlotView{Slot: 5, Loss: true, Counted: true}, 1},
		{"level N + signal stays", fields{n, 5, full(n), n}, SlotView{Slot: 5, Inc: n, Counted: true}, n},
		{"empty tally = total loss", fields{2, 5, nil, 0}, SlotView{Slot: 5, Loss: true, Counted: true}, 1},
		{"probation slot ignored", fields{1, 0, nil, 0}, SlotView{Slot: 0}, 1},
		{"probation slot still hears the signal", fields{1, 0, []int{1}, 2}, SlotView{Slot: 0, Inc: 2}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			host, sess, edge := rig(t)
			var got SlotView
			r := NewReceiver(host, sess, edge, func(r *Receiver, v SlotView) {
				got = v
				FLIDRule(r, v)
			})
			r.Start()
			for r.Level() < tt.fields.level {
				r.Add(0) // counted from slot 2
			}
			for g, cnt := range tt.fields.got {
				deliver(host, sess, tt.fields.slot, g+1, cnt, 4, tt.fields.inc)
			}
			r.evaluate(tt.fields.slot)
			if got != tt.want {
				t.Errorf("view = %+v, want %+v", got, tt.want)
			}
			if r.Level() != tt.wantLevel {
				t.Errorf("level = %d, want %d", r.Level(), tt.wantLevel)
			}
		})
	}
}

// A group added after evaluating slot s counts from s+2: the slot in
// between is its probation, during which its losses are not the
// receiver's.
func TestKernelAddedGroupProbation(t *testing.T) {
	host, sess, edge := rig(t)
	r := NewReceiver(host, sess, edge, FLIDRule)
	r.Start()
	deliver(host, sess, 5, 1, 4, 4, 2)
	r.evaluate(5) // adds group 2, counted from slot 7
	if r.Level() != 2 {
		t.Fatalf("level = %d after an authorized clean slot, want 2", r.Level())
	}
	deliver(host, sess, 6, 1, 4, 4, 0)
	r.evaluate(6) // group 2 silent, but on probation
	if r.Level() != 2 {
		t.Fatalf("level = %d: a probation group's silence read as loss", r.Level())
	}
	deliver(host, sess, 7, 1, 4, 4, 0)
	r.evaluate(7)
	if r.Level() != 1 || r.Decreases != 1 {
		t.Fatalf("level = %d, decreases = %d: group 2 silent past probation must drop", r.Level(), r.Decreases)
	}
}

// Packets of an already evaluated slot are strays: they must not disturb
// the ring entry a later slot will claim.
func TestKernelDropsStraysOfEvaluatedSlots(t *testing.T) {
	host, sess, edge := rig(t)
	r := NewReceiver(host, sess, edge, FLIDRule)
	r.Start()
	deliver(host, sess, 5, 1, 4, 4, 0)
	r.evaluate(5)
	deliver(host, sess, 5+tallyW, 1, 4, 4, 0)
	deliver(host, sess, 5, 1, 1, 4, 0) // late duplicate, same ring entry
	r.evaluate(5 + tallyW)
	if r.Decreases != 0 || r.Level() != 1 {
		t.Fatal("a stray of an evaluated slot clobbered a live tally")
	}
}

// Stopping halts the rule; the Inflator is that plus joining everything,
// and it stands down to a fresh well-behaved start.
func TestInflatorStopsTheRule(t *testing.T) {
	host, sess, edge := rig(t)
	calls := 0
	a := NewInflator(NewReceiver(host, sess, edge, func(*Receiver, SlotView) { calls++ }))
	a.Start()
	if !a.onEval(0) || calls != 1 {
		t.Fatalf("running receiver: onEval continued=%v after %d rule calls", calls == 1, calls)
	}
	a.Inflate()
	a.Inflate() // idempotent
	if !a.Inflated() || a.Level() != 0 {
		t.Fatalf("inflated=%v level=%d, want an inflated attacker with its control loop stopped", a.Inflated(), a.Level())
	}
	if a.onEval(1) || calls != 1 {
		t.Fatal("the rule ran while inflated")
	}
	a.Deflate()
	if a.Inflated() || a.Level() != 1 {
		t.Fatalf("inflated=%v level=%d after Deflate, want a fresh minimal-level receiver", a.Inflated(), a.Level())
	}
}

// The SIGMA subscribe pairs reach the wire, collusion taps and the
// controller's graft order, so a multi-key subscription must list its
// groups in one order — ascending — however the outcome map iterates.
func TestSubscribePairsAscending(t *testing.T) {
	d := topo.New(topo.PaperConfig(250_000, 1))
	d.AddSource("src")
	rcv := d.AddReceiver("rcv")
	d.Done()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Right, sigma.DefaultConfig(slot))
	sess := session(1, slot)

	// One slot's worth of DELTA fields for a receiver of 4 groups with an
	// upgrade to 5 authorized: the outcome carries keys for groups 1..5.
	const top, pkts = 4, 3
	auth := make([]bool, sess.Rates.N)
	counts := make([]int, sess.Rates.N)
	for i := range counts {
		auth[i], counts[i] = i > 0 && i <= top, pkts
	}

	for try := 0; try < 50; try++ {
		src := keys.NewSource(keys.DefaultBits, sim.NewRNG(uint64(try)).Uint64)
		ds := delta.NewLayeredSender(sess.Rates.N, src).BeginSlot(5, auth, counts)
		r := NewDSReceiver(rcv, sess, d.Right.Addr(), Layered)
		var pairs []packet.AddrKey
		r.Client().Tap = func(_ uint32, p []packet.AddrKey) { pairs = append([]packet.AddrKey(nil), p...) }
		r.Start()
		r.b.level[r.mi] = top
		r.b.setLevelAt(r.mi, 5, top)
		for g := 1; g <= top; g++ {
			for j := 1; j <= pkts; j++ {
				comp, dec := ds.Fields(g)
				rcv.Receive(packet.New(0, sess.GroupAddr(g), sess.PacketSize, &packet.FLIDHeader{
					Session: sess.ID, Group: uint8(g), Slot: 5, Seq: uint16(j), Count: pkts,
					IncreaseTo: top + 1, HasDelta: true, Component: comp, Decrease: dec,
				}), nil)
			}
		}
		r.evaluate(5)
		if len(pairs) < 3 {
			t.Fatalf("try %d: subscribe carried %d pairs, want a multi-key subscription", try, len(pairs))
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i-1].Addr >= pairs[i].Addr {
				t.Fatalf("try %d: subscribe pairs out of group order: %v", try, pairs)
			}
		}
	}
}
