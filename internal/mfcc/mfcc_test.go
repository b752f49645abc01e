package mfcc

import (
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// rig is a dumbbell with one receiver host behind a plain-IGMP edge; tests
// call the rule directly and hand advertisements to the host.
func rig(t *testing.T) (*topo.Dumbbell, *netsim.Host, *core.Session) {
	t.Helper()
	d := topo.New(topo.PaperConfig(250_000, 1))
	src := d.AddSource("src")
	rcv := d.AddReceiver("rcv")
	d.Done()
	mcast.NewIGMP(d.Right)
	sess := &core.Session{
		ID: 1, BaseAddr: packet.MulticastBase,
		Rates: core.PaperSchedule(), SlotDur: 500 * sim.Millisecond, PacketSize: 576,
	}
	for _, a := range sess.Addrs() {
		d.Fabric.SetSource(a, src.ID())
	}
	return d, rcv, sess
}

// The steering rule moves one group per clean slot toward the advertised
// target, ignores the sender's increase signal, and caps the target where a
// loss put the receiver.
func TestSteerRule(t *testing.T) {
	n := core.PaperSchedule().N
	tests := []struct {
		name       string
		level      int
		target     int
		view       flid.SlotView
		wantLevel  int
		wantTarget int
	}{
		{"clean slot below target adds one group", 2, 5, flid.SlotView{Slot: 5, Counted: true}, 3, 5},
		{"clean slot at target stays", 3, 3, flid.SlotView{Slot: 5, Counted: true}, 3, 3},
		{"clean slot above target does not shed", 4, 2, flid.SlotView{Slot: 5, Counted: true}, 4, 2},
		{"the increase signal is ignored", 3, 3, flid.SlotView{Slot: 5, Inc: 4, Counted: true}, 3, 3},
		{"before any advertisement nothing moves up", 1, 0, flid.SlotView{Slot: 5, Inc: 2, Counted: true}, 1, 0},
		{"loss drops a group", 3, 3, flid.SlotView{Slot: 5, Loss: true, Counted: true}, 2, 2},
		{"target capped after a loss", 3, 6, flid.SlotView{Slot: 5, Loss: true, Counted: true}, 2, 2},
		{"a target already below is left alone", 4, 2, flid.SlotView{Slot: 5, Loss: true, Counted: true}, 3, 2},
		{"level 1 + loss stays, target uncapped", 1, 4, flid.SlotView{Slot: 5, Loss: true, Counted: true}, 1, 4},
		{"level N + higher target stays", n, n + 1, flid.SlotView{Slot: 5, Counted: true}, n, n + 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, host, sess := rig(t)
			m := &steer{sess: sess, target: tt.target}
			r := flid.NewReceiver(host, sess, d.Right.Addr(), m.rule)
			r.Start()
			for r.Level() < tt.level {
				r.Add(0)
			}
			m.rule(r, tt.view)
			if r.Level() != tt.wantLevel || m.target != tt.wantTarget {
				t.Errorf("level/target = %d/%d, want %d/%d", r.Level(), m.target, tt.wantLevel, tt.wantTarget)
			}
		})
	}
}

// An advertised share becomes the fair level it affords, floored at the
// minimal group; other sessions' advertisements are not ours.
func TestOnShare(t *testing.T) {
	rates := core.PaperSchedule()
	tests := []struct {
		name    string
		session uint16
		share   int64
		want    int
	}{
		{"exactly level 3", 1, rates.Cumulative(3), 3},
		{"just short of level 3", 1, rates.Cumulative(3) - 1, 2},
		{"below the minimal group floors at 1", 1, rates.Base / 2, 1},
		{"beyond the schedule stops at N", 1, 10 * rates.Cumulative(rates.N), rates.N},
		{"another session is ignored", 2, rates.Cumulative(5), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, host, sess := rig(t)
			m := &steer{sess: sess}
			host.Handle(packet.ProtoShare, m.onShare)
			host.Receive(packet.New(0, host.Addr(), 0, &packet.ShareHeader{Session: tt.session, ShareBps: tt.share, Subscribers: 1}), nil)
			if m.target != tt.want {
				t.Errorf("target = %d, want %d", m.target, tt.want)
			}
		})
	}
}

// NewReceiver wires both halves: the host hears advertisements and the
// kernel follows them.
func TestReceiverFollowsAdvertisement(t *testing.T) {
	d, host, sess := rig(t)
	r := NewReceiver(host, sess, d.Right.Addr())
	r.Start()
	host.Receive(packet.New(0, host.Addr(), 0, &packet.ShareHeader{Session: sess.ID, ShareBps: sess.Rates.Cumulative(2)}), nil)
	deliver := func(slot uint32, g int) {
		host.Receive(packet.New(0, sess.GroupAddr(g), sess.PacketSize, &packet.FLIDHeader{
			Session: sess.ID, Group: uint8(g), Slot: slot, Seq: 1, Count: 1,
		}), nil)
	}
	sched := host.Scheduler()
	for slot := uint32(0); slot < 6; slot++ {
		sched.RunUntil(sess.SlotStart(slot) + sess.SlotDur/2)
		for g := 1; g <= r.Level(); g++ {
			deliver(slot, g)
		}
	}
	if r.Level() != 2 || r.Increases != 1 {
		t.Fatalf("level = %d after %d increases, want the advertised level 2 reached once", r.Level(), r.Increases)
	}
}
