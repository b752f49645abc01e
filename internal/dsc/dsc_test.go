package dsc

import (
	"math"
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
// plain-IGMP edge. Tests call rules and policies directly; the scheduler
// never runs.
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

// The dsc rule is FLID's plus a report: every evaluated slot of a
// subscribed receiver reports, whatever the move.
func TestRule(t *testing.T) {
	n := core.PaperSchedule().N
	tests := []struct {
		name      string
		level     int
		view      flid.SlotView
		wantLevel int
	}{
		{"clean slot reports and stays", 3, flid.SlotView{Slot: 5, Counted: true}, 3},
		{"signal adds a group", 3, flid.SlotView{Slot: 5, Inc: 4, Counted: true}, 4},
		{"loss drops the top group", 3, flid.SlotView{Slot: 5, Loss: true, Inc: 4, Counted: true}, 2},
		{"level 1 + loss stays", 1, flid.SlotView{Slot: 5, Loss: true, Counted: true}, 1},
		{"level N + signal stays", n, flid.SlotView{Slot: 5, Inc: n, Counted: true}, n},
		{"probation slot reports clean", 1, flid.SlotView{Slot: 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, host, sess, edge := rig(t)
			r := NewReceiver(host, sess, edge)
			r.Start()
			for r.Level() < tt.level {
				r.Add(0)
			}
			rule(r, tt.view)
			if r.Level() != tt.wantLevel {
				t.Errorf("level = %d, want %d", r.Level(), tt.wantLevel)
			}
			if r.ReportsSent != 1 {
				t.Errorf("reports sent = %d, want 1", r.ReportsSent)
			}
		})
	}
}

// A session with no wired source has nowhere to report to.
func TestRuleWithoutSourceStaysSilent(t *testing.T) {
	_, host, sess, edge := rig(t)
	sess.Src = 0
	r := NewReceiver(host, sess, edge)
	r.Start()
	rule(r, flid.SlotView{Slot: 5, Counted: true})
	if r.ReportsSent != 0 {
		t.Fatalf("reports sent = %d toward an unset source", r.ReportsSent)
	}
}

// The multiplier policy: one congested slot cuts by cutFactor down to the
// minMult floor, recoverAfter consecutive clean slots raise by raiseFactor
// up to the schedule (1.0).
func TestMultiplierPolicy(t *testing.T) {
	const c, cl = true, false
	tests := []struct {
		name   string
		start  float64
		slots  []bool // congested?
		want   float64
		cuts   uint64
		raises uint64
	}{
		{"one congested slot cuts", 1, []bool{c}, cutFactor, 1, 0},
		{"at the schedule clean slots change nothing", 1, []bool{cl, cl, cl}, 1, 0, 0},
		{"one clean slot is not enough to raise", 0.5, []bool{cl}, 0.5, 0, 0},
		{"needs 2 clean slots to raise", 0.5, []bool{cl, cl}, 0.5 * raiseFactor, 0, 1},
		{"then raises every clean slot", 0.5, []bool{cl, cl, cl}, 0.5 * raiseFactor * raiseFactor, 0, 2},
		{"a congested slot restarts the clean count", 0.5, []bool{cl, c, cl}, 0.5 * cutFactor, 1, 0},
		{"cut clamps at the 0.25 floor", 0.26, []bool{c}, minMult, 1, 0},
		{"at the floor a congested slot is no cut", minMult, []bool{c, c}, minMult, 0, 0},
		{"raise clamps at the 1.0 ceiling", 0.99, []bool{cl, cl}, 1, 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src, _, sess, _ := rig(t)
			s := NewSender(src, sess, core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}, sim.NewRNG(1))
			s.mult = tt.start
			for _, congested := range tt.slots {
				s.adapt(congested)
			}
			if math.Abs(s.Mult()-tt.want) > 1e-12 {
				t.Errorf("mult = %v, want %v", s.Mult(), tt.want)
			}
			if s.RateCuts != tt.cuts || s.RateRaises != tt.raises {
				t.Errorf("cuts/raises = %d/%d, want %d/%d", s.RateCuts, s.RateRaises, tt.cuts, tt.raises)
			}
		})
	}
}

// Reports reach the policy through the sender loop's tally; a consolidated
// report that lost its count still stands for one receiver.
func TestFeedbackTally(t *testing.T) {
	tests := []struct {
		name    string
		reports []packet.FeedbackHeader
		want    uint64
	}{
		{"leaf reports count one each", []packet.FeedbackHeader{{Session: 1, Reports: 1}, {Session: 1, Reports: 1}}, 2},
		{"consolidated reports count their merged total", []packet.FeedbackHeader{{Session: 1, Reports: 7}}, 7},
		{"consolidated Reports=0 counts as 1", []packet.FeedbackHeader{{Session: 1, Reports: 0}}, 1},
		{"another session's report is ignored", []packet.FeedbackHeader{{Session: 2, Reports: 3, Congested: true}}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src, _, sess, _ := rig(t)
			s := NewSender(src, sess, core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}, sim.NewRNG(1))
			for i := range tt.reports {
				src.Receive(packet.New(0, src.Addr(), 0, &tt.reports[i]), nil)
			}
			if s.FeedbackReports != tt.want {
				t.Errorf("feedback reports = %d, want %d", s.FeedbackReports, tt.want)
			}
		})
	}
}

// End to end through the loop: a congested report heard during a slot cuts
// the rate the next slot is paced at, and the flag does not linger.
func TestCongestedReportCutsNextSlot(t *testing.T) {
	src, _, sess, _ := rig(t)
	s := NewSender(src, sess, core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}, sim.NewRNG(1))
	sched := src.Scheduler()
	s.Start()
	sched.RunUntil(sess.SlotDur / 2) // slot 0 set up, nothing heard: clean
	if s.Mult() != 1 {
		t.Fatalf("mult = %v before any report", s.Mult())
	}
	src.Receive(packet.New(0, src.Addr(), 0, &packet.FeedbackHeader{Session: sess.ID, Reports: 4, Congested: true}), nil)
	sched.RunUntil(sess.SlotDur + sess.SlotDur/2) // slot 1 adapts on it
	if s.Mult() != cutFactor || s.RateCuts != 1 {
		t.Fatalf("mult = %v after a congested report, want one cut to %v", s.Mult(), cutFactor)
	}
	sched.RunUntil(2*sess.SlotDur + sess.SlotDur/2) // slot 2: nothing new
	if s.RateCuts != 1 {
		t.Fatalf("cuts = %d: the congested flag outlived its slot", s.RateCuts)
	}
	if s.SlotsRun != 3 {
		t.Fatalf("slots run = %d, want 3", s.SlotsRun)
	}
}
