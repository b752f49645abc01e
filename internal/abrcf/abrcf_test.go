package abrcf

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

// rig is a dumbbell with a source host and one receiver host behind a
// plain-IGMP edge. Tests call the rule and the controller directly.
func rig(t *testing.T) (src, rcv *netsim.Host, sess *core.Session, edge packet.Addr) {
	t.Helper()
	d := topo.Spec{Kind: "dumbbell", CapacitiesBps: []int64{250_000}}.Build(1)
	src = d.AttachSource("src")
	rcv = d.AttachReceiver("rcv", topo.DefaultDelay).Host
	d.Finish()
	mcast.NewIGMP(d.Routers[1])
	sess = &core.Session{
		ID: 1, BaseAddr: packet.MulticastBase, Src: src.Addr(),
		Rates: core.PaperSchedule(), SlotDur: 500 * sim.Millisecond, PacketSize: 576,
	}
	return src, rcv, sess, d.Routers[1].Addr()
}

// The abr-cf rule never moves — one group, whatever the signal — and
// reports every slot it observed in full.
func TestRule(t *testing.T) {
	tests := []struct {
		name        string
		view        flid.SlotView
		wantReports uint64
	}{
		{"clean slot reports", flid.SlotView{Slot: 5, Counted: true}, 1},
		{"lossy slot reports and stays", flid.SlotView{Slot: 5, Loss: true, Counted: true}, 1},
		{"an increase signal moves nothing", flid.SlotView{Slot: 5, Inc: 2, Counted: true}, 1},
		{"the partial join slot is not reported", flid.SlotView{Slot: 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, host, sess, edge := rig(t)
			r := NewReceiver(host, sess, edge)
			r.Start()
			rule(r, tt.view)
			if r.Level() != 1 || r.Increases+r.Decreases != 0 {
				t.Errorf("level = %d after %d moves, want the single channel held", r.Level(), r.Increases+r.Decreases)
			}
			if r.ReportsSent != tt.wantReports {
				t.Errorf("reports sent = %d, want %d", r.ReportsSent, tt.wantReports)
			}
		})
	}
}

// The AIMD controller: multiplicative cut on a congested slot, additive
// raise of Base/raiseDivisor otherwise, clamped to the schedule's
// Cumulative(1) floor and Cumulative(N) ceiling.
func TestAIMD(t *testing.T) {
	rates := core.PaperSchedule()
	floor, ceil, step := rates.Cumulative(1), rates.Cumulative(rates.N), rates.Base/raiseDivisor
	tests := []struct {
		name      string
		start     int64
		congested bool
		want      int64
		cuts      uint64
		raises    uint64
	}{
		{"clean slot raises by one step", 200_000, false, 200_000 + step, 0, 1},
		{"congested slot cuts by cutFactor", 200_000, true, 180_000, 1, 0},
		{"cut clamps to Cumulative(1)", floor + 1000, true, floor, 1, 0},
		{"at the floor a congested slot is no cut", floor, true, floor, 0, 0},
		{"raise clamps to Cumulative(N)", ceil - 1, false, ceil, 0, 1},
		{"at the ceiling a clean slot is no raise", ceil, false, ceil, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src, _, sess, _ := rig(t)
			s := NewSender(src, sess, sim.NewRNG(1))
			if s.Rate() != floor {
				t.Fatalf("a fresh channel starts at %d, want the floor %d", s.Rate(), floor)
			}
			s.rate = tt.start
			s.adapt(tt.congested)
			if s.Rate() != tt.want {
				t.Errorf("rate = %d, want %d", s.Rate(), tt.want)
			}
			if s.RateCuts != tt.cuts || s.RateRaises != tt.raises {
				t.Errorf("cuts/raises = %d/%d, want %d/%d", s.RateCuts, s.RateRaises, tt.cuts, tt.raises)
			}
		})
	}
}

// The source emits the single channel only, however many groups the
// bounding schedule has; consolidated reports that lost their count still
// tally as one.
func TestSingleChannelEmission(t *testing.T) {
	src, _, sess, _ := rig(t)
	s := NewSender(src, sess, sim.NewRNG(1))
	s.Start()
	src.Receive(packet.New(0, src.Addr(), 0, &packet.FeedbackHeader{Session: sess.ID, Reports: 0}), nil)
	src.Scheduler().RunUntil(3 * sess.SlotDur)
	if len(s.PacketsPerGroup) != 1 || s.PacketsPerGroup[0] == 0 || s.PacketsSent != s.PacketsPerGroup[0] {
		t.Fatalf("per-group emissions %v of %d packets, want everything on group 1", s.PacketsPerGroup, s.PacketsSent)
	}
	if s.FeedbackReports != 1 {
		t.Fatalf("feedback reports = %d, want a countless consolidated report tallied as 1", s.FeedbackReports)
	}
}
