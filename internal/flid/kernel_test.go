package flid

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// rig is a dumbbell with one receiver host behind a plain-IGMP edge. The
// white-box tests below never run the scheduler: they hand packets to the
// host and evaluate slots directly.
func rig(t *testing.T) (*netsim.Host, *core.Session, packet.Addr) {
	t.Helper()
	d := topo.Dumbbell(topo.PaperConfig(250_000, 1))
	d.AttachSource("src")
	rcv := d.AttachReceiver("rcv", topo.DefaultDelay).Host
	d.Finish()
	mcast.NewIGMP(d.Routers[1])
	return rcv, session(1, 500*sim.Millisecond), d.Routers[1].Addr()
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
// groups in one order — ascending. An outcome's keys are a run of adjacent
// groups starting at First, so the order holds by construction for every
// instantiation and every kind of slot; each pair must also carry the key
// that opens its own group.
func TestSubscribePairsAscending(t *testing.T) {
	d := topo.Dumbbell(topo.PaperConfig(250_000, 1))
	d.AttachSource("src")
	rcv := d.AttachReceiver("rcv", topo.DefaultDelay).Host
	d.Finish()
	slot := 250 * sim.Millisecond
	sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))
	n := core.PaperSchedule().N

	// A receiver of 4 groups, 4 packets a group, an upgrade to 5 authorized.
	const top, pkts = 4, 4
	auth, counts := make([]bool, n), make([]int, n)
	for i := range counts {
		auth[i], counts[i] = i > 0 && i <= top, pkts
	}
	thresh := make([]float64, n)
	for i := range thresh {
		thresh[i] = 0.25
	}

	// A slot source stamps the DELTA fields of one instantiation onto data
	// headers and says which keys open which group. Each has a session of
	// its own: a session's receivers share one accumulator ring.
	type slotSource struct {
		sess   *core.Session
		newAcc func(n int) Accumulator
		begin  func(seed uint64) (stamp func(h *packet.FLIDHeader), keys *delta.SlotKeys)
	}
	layered := slotSource{session(1, slot), Layered, func(seed uint64) (func(*packet.FLIDHeader), *delta.SlotKeys) {
		src := keys.NewSource(keys.DefaultBits, sim.NewRNG(seed).Uint64)
		ds := delta.NewLayeredSender(n, src).BeginSlot(5, auth, counts)
		return func(h *packet.FLIDHeader) {
			h.HasDelta = true
			h.Component, h.Decrease = ds.Fields(int(h.Group))
		}, &ds.Keys
	}}
	shamirShared := slotSource{session(2, slot),
		func(n int) Accumulator { return delta.NewThresholdReceiver(n, thresh) },
		func(seed uint64) (func(*packet.FLIDHeader), *delta.SlotKeys) {
			rng := sim.NewRNG(seed)
			src := keys.NewSource(keys.DefaultBits, rng.Fork().Uint64)
			ts, err := delta.NewThresholdSender(n, thresh, src, shamir.NewSplitter(rng.Fork().Uint64)).BeginSlot(5, auth, counts)
			if err != nil {
				t.Fatal(err)
			}
			return func(h *packet.FLIDHeader) {
				share, up := ts.Shares(int(h.Group))
				h.ShareX, h.ShareY, h.UpShareX, h.UpShareY = share.X, share.Y, up.X, up.Y
			}, &ts.Keys
		}}

	for _, tc := range []struct {
		name string
		src  slotSource
		lose func(g, seq int) bool // which packets the receiver misses
		want int                   // pairs in the subscription: groups 1..want
	}{
		{"layered, clean slot, upgrade", layered, func(g, seq int) bool { return false }, top + 1},
		{"layered, loss in the top group", layered, func(g, seq int) bool { return g == top && seq == 2 }, top},
		{"layered, loss lower down", layered, func(g, seq int) bool { return g == 2 && seq == 1 }, top - 1},
		{"layered, a group lost whole", layered, func(g, seq int) bool { return g == 3 }, 1},
		{"threshold, clean slot, upgrade", shamirShared, func(g, seq int) bool { return false }, top + 1},
		{"threshold, tolerable loss", shamirShared, func(g, seq int) bool { return g == top && seq == 2 }, top + 1},
		{"threshold, top level over tolerance", shamirShared, func(g, seq int) bool { return g == top && seq <= 2 }, top - 1},
	} {
		for try := uint64(0); try < 10; try++ {
			stamp, slotKeys := tc.src.begin(try)
			sess := tc.src.sess
			r := NewDSReceiver(rcv, sess, d.Routers[1].Addr(), tc.src.newAcc)
			var pairs []packet.AddrKey
			r.Client().Tap = func(_ uint32, p []packet.AddrKey) { pairs = append([]packet.AddrKey(nil), p...) }
			r.Start()
			r.b.inForce[r.mi] = [2]int32{top, top}
			for g := 1; g <= top; g++ {
				for j := 1; j <= pkts; j++ {
					h := &packet.FLIDHeader{Session: sess.ID, Group: uint8(g), Slot: 5, Seq: uint16(j), Count: pkts, IncreaseTo: top + 1}
					stamp(h) // every scheduled packet draws its fields, received or not
					if !tc.lose(g, j) {
						rcv.Receive(packet.New(0, sess.GroupAddr(g), sess.PacketSize, h), nil)
					}
				}
			}
			r.evaluate(5)
			if len(pairs) != tc.want {
				t.Fatalf("%s, try %d: subscribe carried %d pairs, want groups 1..%d", tc.name, try, len(pairs), tc.want)
			}
			for i, p := range pairs {
				if g := i + 1; p.Addr != sess.GroupAddr(g) || !slotKeys.Opens(g, p.Key) {
					t.Fatalf("%s, try %d: pair %d is %v, want the key opening group %d at %v", tc.name, try, i, p, g, sess.GroupAddr(g))
				}
			}
		}
	}
}
