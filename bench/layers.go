package main

import (
	"fmt"
	"runtime"
	"time"

	"deltasigma"
	"deltasigma/internal/campaign"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// This file holds the isolated layer drivers: each times calls into one
// layer's public functions at a fixed operation count, away from the
// workloads, so a change to that layer has a number of its own. README.md
// says which end-to-end metric each should move, and on which workload.

// layerDriver measures one layer and reports one value per metric it
// declares, in order.
type layerDriver struct {
	metrics []metricDef
	// run takes the divisor quick runs shrink operation counts by (1 for
	// a real measurement).
	run func(shrink int) []float64
}

func ns(name string) metricDef { return metricDef{Name: name, Unit: "ns", Better: "lower"} }
func us(name string) metricDef { return metricDef{Name: name, Unit: "us", Better: "lower"} }
func ms(name string) metricDef { return metricDef{Name: name, Unit: "ms", Better: "lower"} }

var layerDrivers = []layerDriver{
	{[]metricDef{ns("sim.schedule_fire_ns_p64"), ns("sim.schedule_fire_ns_p1k"), ns("sim.timer_reset_ns"), ns("sim.timer_stop_ns")}, driveSim},
	{[]metricDef{ns("packet.get_release_ns"), ns("packet.retain_release_ns")}, drivePacket},
	{[]metricDef{ns("netsim.link_packet_ns"), ns("netsim.queue_drop_ns"), ms("netsim.routes_ms_h1k")}, driveNetsim},
	{[]metricDef{ns("mcast.fanout_copy_ns_w2"), ns("mcast.fanout_copy_ns_w32"), ns("mcast.fanout_copy_ns_w1024"), ns("mcast.graft_prune_ns"), ns("mcast.feedback_absorb_ns")}, driveMcast},
	{[]metricDef{ns("flid.dl_receiver_slot_ns"), ns("flid.ds_receiver_slot_ns")}, driveFlid},
	{[]metricDef{ns("delta.sender_slot_ns"), ns("delta.receiver_slot_ns"), ns("delta.threshold_slot_ns")}, driveDelta},
	{[]metricDef{ns("sigma.subscribe_ok_ns"), ns("sigma.subscribe_deny_ns"), ns("sigma.deliver_check_ns"), ns("sigma.announce_ns")}, driveSigma},
	{protocolMetrics(), driveProtocols},
	{[]metricDef{us("cohort.slot_us_b1"), us("cohort.slot_us_b64")}, driveCohort},
	{[]metricDef{ms("tcp.ms_per_sim_s")}, driveTCP},
	{[]metricDef{us("invariant.check_us_r256"), ms("invariant.drain_audit_ms")}, driveInvariant},
	{[]metricDef{ns("campaign.job_overhead_ns"), {Name: "campaign.speedup_w2", Unit: "ratio", Better: "higher"}}, driveCampaign},
	{[]metricDef{{Name: "facade.live_heap_mb_r1000", Unit: "MB", Better: "lower"}}, driveFacadeHeap},
	{[]metricDef{
		{Name: "sharding.overhead_ratio_s2", Unit: "ratio", Better: "lower"},
		{Name: "sharding.windows", Unit: "count", Better: "lower"},
		{Name: "sharding.efficiency", Unit: "ratio", Better: "higher"},
		us("sim.shard_window_us"),
	}, driveSharding},
}

// runLayers runs every isolated driver. quick shrinks operation counts so
// the package test stays fast; such readings are not comparable.
func runLayers(quick bool) []metric {
	shrink := 1
	if quick {
		shrink = 50
	}
	var out []metric
	for _, d := range layerDrivers {
		values := d.run(shrink)
		for i, def := range d.metrics {
			out = append(out, metric{Name: def.Name, Unit: def.Unit, Value: values[i]})
		}
	}
	return append(out, shardScaling(shrink))
}

// stopwatch accumulates the host time of timed sections and the operations
// they covered.
type stopwatch struct {
	total time.Duration
	ops   int
}

func (s *stopwatch) time(ops int, f func()) {
	t0 := time.Now()
	f()
	s.total += time.Since(t0)
	s.ops += ops
}

func (s *stopwatch) nsPerOp() float64 { return float64(s.total.Nanoseconds()) / float64(s.ops) }

// measured runs f, which performs ops operations, and reports nanoseconds
// and heap allocations per operation.
func measured(ops int, f func()) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// ---------------------------------------------------------------------------
// sim

func driveSim(shrink int) []float64 {
	p64, _ := simScheduleFire(64, 500_000/shrink)
	p1k, _ := simScheduleFire(1024, 500_000/shrink)
	reset, stop := simTimerOps(2_000_000 / shrink)
	return []float64{p64, p1k, reset, stop}
}

// simScheduleFire is the simulator's dominant load in miniature: every slot
// one emitter schedules 64 evenly spaced events (a sender's packets) and
// `width` timers all re-arm for the same slot boundary (one per receiver).
// It reports host time and allocations per fired event.
func simScheduleFire(width, events int) (nsPerEvent, allocsPerEvent float64) {
	const slot = 250 * sim.Millisecond
	const perSlot = 64
	s := sim.NewScheduler()
	timers := make([]*sim.Timer, width)
	for i := range timers {
		t := &timers[i]
		*t = s.NewTimer(func() { (*t).Reset(slot) })
		(*t).Reset(slot)
	}
	nop := func() {}
	var emit func()
	emit = func() {
		now := s.Now()
		for j := 1; j < perSlot; j++ {
			s.Schedule(now+sim.Time(j)*(slot/perSlot), nop)
		}
		s.Schedule(now+slot, emit)
	}
	s.Schedule(0, emit)

	slots := events / (width + perSlot)
	s.RunUntil(64 * slot) // freelist and calendar reach steady state
	before := s.Fired()
	ns, allocs := measured(1, func() { s.RunUntil(s.Now() + sim.Time(slots)*slot) })
	fired := float64(s.Fired() - before)
	return ns / fired, allocs / fired
}

// simTimerOps times re-arming an active timer in place, and the arm-cancel
// pair TCP retransmission timers live on.
func simTimerOps(n int) (resetNs, stopNs float64) {
	s := sim.NewScheduler()
	// A populated calendar, so refiling crosses buckets as it does in a run.
	for i := 0; i < 256; i++ {
		s.Schedule(sim.Time(i+1)*sim.Millisecond, func() {})
	}
	t := s.NewTimer(func() {})
	t.Reset(sim.Millisecond)
	resetNs, _ = measured(n, func() {
		for i := 0; i < n; i++ {
			t.Reset(sim.Time(i%200+1) * sim.Millisecond)
		}
	})
	stopNs, _ = measured(n, func() {
		for i := 0; i < n; i++ {
			t.Reset(sim.Time(i%200+1) * sim.Millisecond)
			t.Stop()
		}
	})
	return resetNs, stopNs
}

// ---------------------------------------------------------------------------
// packet

func drivePacket(shrink int) []float64 {
	get, _ := packetGetRelease(4_000_000 / shrink)
	n := 8_000_000 / shrink
	p := (&packet.Pool{}).Get(1, 2, 576, nil)
	retain, _ := measured(n, func() {
		for i := 0; i < n; i++ {
			p.Retain().Release()
		}
	})
	return []float64{get, retain}
}

// packetGetRelease cycles one envelope through a warm pool.
func packetGetRelease(n int) (nsPerOp, allocsPerOp float64) {
	pool := &packet.Pool{}
	pool.Get(1, 2, 576, nil).Release()
	return measured(n, func() {
		for i := 0; i < n; i++ {
			pool.Get(1, 2, 576, nil).Release()
		}
	})
}

// ---------------------------------------------------------------------------
// netsim

func driveNetsim(shrink int) []float64 {
	link, _ := netsimLinkPacket(1_000_000 / shrink)
	return []float64{link, netsimQueueDrop(2_000_000 / shrink), netsimRoutes(1000/min(shrink, 10), 3)}
}

// netsimLinkPacket pushes pooled packets across one 100 Mbps link — Send,
// serialize, propagate, deliver, release — and reports the cost per packet
// in steady state.
func netsimLinkPacket(n int) (nsPerPacket, allocsPerPacket float64) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	a, b := net.AddHost("a"), net.AddHost("b")
	net.Connect(a, b, 100_000_000, sim.Millisecond, 1<<20)
	net.ComputeRoutes()
	const burst = 500
	round := func() {
		for i := 0; i < burst; i++ {
			a.Send(a.NewPacket(b.Addr(), 576, nil))
		}
		sched.Run()
	}
	for i := 0; i < 4; i++ {
		round() // rings, freelists and the pool reach their working size
	}
	return measured(n/burst*burst, func() {
		for i := 0; i < n/burst; i++ {
			round()
		}
	})
}

// netsimQueueDrop times the drop-tail path: a packet offered to a full
// queue is counted, released and gone.
func netsimQueueDrop(n int) float64 {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	a, b := net.AddHost("a"), net.AddHost("b")
	ab, _ := net.Connect(a, b, 8_000, sim.Millisecond, 2*576)
	net.ComputeRoutes()
	for i := 0; i < 4; i++ { // one serializing, the queue full
		ab.Send(a.NewPacket(b.Addr(), 576, nil))
	}
	pkt := a.NewPacket(b.Addr(), 576, nil)
	dropped := ab.Queue.Dropped
	nsPerDrop, _ := measured(n, func() {
		for i := 0; i < n; i++ {
			ab.Send(pkt.Retain()) // the drop releases the reference it was given
		}
	})
	if got := ab.Queue.Dropped - dropped; got != uint64(n) {
		panic(fmt.Sprintf("bench: queue-drop driver dropped %d of %d packets", got, n))
	}
	return nsPerDrop
}

// netsimRoutes builds the paper's dumbbell shape with `hosts` receivers and
// times ComputeRoutes, the median of `builds` fresh networks, in ms.
func netsimRoutes(hosts, builds int) float64 {
	var samples []float64
	for b := 0; b < builds; b++ {
		sched := sim.NewScheduler()
		net := netsim.New(sched, sim.NewRNG(1))
		fabric := mcast.NewFabric(net)
		left, right := mcast.NewRouter(net, fabric, "left"), mcast.NewRouter(net, fabric, "right")
		net.Connect(left, right, 1_000_000, 20*sim.Millisecond, 1<<16)
		net.Connect(net.AddHost("src"), left, 10_000_000, 10*sim.Millisecond, 1<<16)
		for i := 0; i < hosts; i++ {
			net.Connect(right, net.AddHost(fmt.Sprintf("r%d", i)), 10_000_000, 10*sim.Millisecond, 1<<16)
		}
		t0 := time.Now()
		net.ComputeRoutes()
		samples = append(samples, time.Since(t0).Seconds()*1e3)
	}
	return median(samples)
}

// ---------------------------------------------------------------------------
// mcast

func driveMcast(shrink int) []float64 {
	copies := 500_000 / shrink
	return []float64{
		mcastFanout(2, copies), mcastFanout(32, copies), mcastFanout(1024, copies),
		mcastGraftPrune(100_000 / shrink), mcastFeedbackAbsorb(500_000 / shrink),
	}
}

// mcastFanout times Router.Receive replicating a multicast packet onto
// `width` IGMP-joined local interfaces: the cost per copy, up to and
// including the enqueue on the access link. The links drain untimed.
func mcastFanout(width, copies int) float64 {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	fabric := mcast.NewFabric(net)
	edge := mcast.NewRouter(net, fabric, "edge")
	src := net.AddHost("src")
	net.Connect(src, edge, 1_000_000_000, sim.Millisecond, 1<<30)
	hosts := make([]*netsim.Host, width)
	for i := range hosts {
		hosts[i] = net.AddHost(fmt.Sprintf("h%d", i))
		net.Connect(edge, hosts[i], 1_000_000_000, sim.Millisecond, 1<<30)
		edge.AttachLocal(hosts[i])
	}
	net.ComputeRoutes()
	mcast.NewIGMP(edge)
	group := packet.MulticastBase
	fabric.SetSource(group, src.ID())
	for _, h := range hosts {
		mcast.NewClient(h, edge.Addr()).Join(group)
	}
	sched.Run()

	const burst = 16
	var sw stopwatch
	round := func() {
		sw.time(burst*width, func() {
			for i := 0; i < burst; i++ {
				edge.Receive(src.NewPacket(group, 576, nil), nil)
			}
		})
		sched.Run()
	}
	round()
	if edge.DeliveredLocal != uint64(burst*width) {
		panic(fmt.Sprintf("bench: fan-out driver delivered %d copies of %d", edge.DeliveredLocal, burst*width))
	}
	sw = stopwatch{}
	for sw.ops < copies {
		round()
	}
	return sw.nsPerOp()
}

// mcastGraftPrune times extending a group's tree to an edge two hops from
// the source and cutting it again, propagation events included.
func mcastGraftPrune(pairs int) float64 {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	fabric := mcast.NewFabric(net)
	core, edge := mcast.NewRouter(net, fabric, "core"), mcast.NewRouter(net, fabric, "edge")
	src := net.AddHost("src")
	net.Connect(src, core, 10_000_000, sim.Millisecond, 1<<16)
	net.Connect(core, edge, 10_000_000, sim.Millisecond, 1<<16)
	net.ComputeRoutes()
	group := packet.MulticastBase
	fabric.SetSource(group, src.ID())
	nsPerPair, _ := measured(pairs, func() {
		for i := 0; i < pairs; i++ {
			fabric.Graft(group, edge.ID())
			sched.Run()
			fabric.Prune(group, edge.ID())
			sched.Run()
		}
	})
	if fabric.Grafts != uint64(pairs) || fabric.Prunes != uint64(pairs) {
		panic(fmt.Sprintf("bench: graft driver made %d grafts and %d prunes of %d", fabric.Grafts, fabric.Prunes, pairs))
	}
	return nsPerPair
}

// mcastFeedbackAbsorb times a consolidating router merging upstream-bound
// receiver reports: 64 children report per slot, one merged report leaves.
func mcastFeedbackAbsorb(reports int) float64 {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	fabric := mcast.NewFabric(net)
	r := mcast.NewRouter(net, fabric, "r")
	src, child := net.AddHost("src"), net.AddHost("child")
	net.Connect(src, r, 10_000_000, sim.Millisecond, 1<<20)
	net.Connect(r, child, 10_000_000, sim.Millisecond, 1<<20)
	net.ComputeRoutes()
	r.EnableConsolidation(10 * sim.Millisecond)

	const children = 64
	var sw stopwatch
	for slot := uint32(0); sw.ops < reports; slot++ {
		pkts := make([]*packet.Packet, children)
		for i := range pkts {
			pkts[i] = child.NewPacket(src.Addr(), 0, &packet.FeedbackHeader{Session: 1, Slot: slot, Count: 1, MaxLevel: uint8(i % 8), Reports: 1})
		}
		sw.time(children, func() {
			for _, p := range pkts {
				r.Receive(p, nil)
			}
		})
		sched.Run()
	}
	if r.FeedbackAbsorbed != uint64(sw.ops) {
		panic(fmt.Sprintf("bench: feedback driver absorbed %d reports of %d", r.FeedbackAbsorbed, sw.ops))
	}
	return sw.nsPerOp()
}

// ---------------------------------------------------------------------------
// flid, protocols, tcp: small fixed sessions on the facade

// shortSchedule is a 2-group schedule (150 Kbps at the top, some 8 or 16
// packets per receiver per slot): on a 10 Mbps bottleneck nothing is ever
// lost, and few enough packets cross each access link that the receivers'
// own slot work is a visible part of the cost.
var shortSchedule = deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 2}

func driveFlid(shrink int) []float64 {
	receivers := 1000 / min(shrink, 10)
	return []float64{flidReceiverSlot("flid-dl", receivers), flidReceiverSlot("flid-ds", receivers)}
}

// flidReceiverSlot runs one lossless session with many receivers and
// reports host time per receiver per slot, after the receivers have climbed
// to the top level. The figure includes delivering the slot's packets over
// each receiver's access link — a receiver cannot be driven without them —
// so compare it between commits, or DL against DS, not against zero.
func flidReceiverSlot(protocol string, receivers int) float64 {
	e := deltasigma.MustNew(
		deltasigma.WithDumbbell(10_000_000),
		deltasigma.WithProtocol(protocol),
		deltasigma.WithSchedule(shortSchedule),
		deltasigma.WithSeed(1),
	)
	e.AddSession(receivers)
	const warm, timed = 5 * deltasigma.Second, 5 * deltasigma.Second
	e.Advance(warm)
	t0 := time.Now()
	e.Advance(warm + timed)
	elapsed := time.Since(t0)
	if lost := e.Run(warm + timed).LostPackets; lost != 0 {
		panic(fmt.Sprintf("bench: the lossless %s session lost %d packets", protocol, lost))
	}
	slots := float64(timed) / float64(e.Slot())
	return float64(elapsed.Nanoseconds()) / (float64(receivers) * slots)
}

func protocolMetrics() []metricDef {
	var defs []metricDef
	for _, name := range deltasigma.Protocols() {
		defs = append(defs, ms("proto."+name+".ms_per_sim_s"))
	}
	return defs
}

// driveProtocols runs one 2-receiver session of every registered protocol
// and reports host milliseconds per virtual second. The 6-group schedule is
// the shoot-out's: it fits the replicated sender inside its access link.
func driveProtocols(shrink int) []float64 {
	timed := deltasigma.Time(200/min(shrink, 20)) * deltasigma.Second
	var out []float64
	for _, name := range deltasigma.Protocols() {
		e := deltasigma.MustNew(
			deltasigma.WithDumbbell(500_000),
			deltasigma.WithProtocol(name),
			deltasigma.WithSchedule(deltasigma.RateSchedule{Base: 100_000, Mult: 1.5, N: 6}),
			deltasigma.WithSeed(1),
		)
		e.AddSession(2)
		out = append(out, msPerSimSecond(e, 5*deltasigma.Second, timed))
	}
	return out
}

func driveTCP(shrink int) []float64 {
	e := deltasigma.MustNew(deltasigma.WithDumbbell(1_000_000), deltasigma.WithSeed(1))
	e.AddTCP(0)
	return []float64{msPerSimSecond(e, 5*deltasigma.Second, deltasigma.Time(200/min(shrink, 20))*deltasigma.Second)}
}

func msPerSimSecond(e *deltasigma.Experiment, warm, timed deltasigma.Time) float64 {
	e.Advance(warm)
	t0 := time.Now()
	e.Advance(warm + timed)
	return time.Since(t0).Seconds() * 1e3 / timed.Sec()
}

// ---------------------------------------------------------------------------
// delta

func driveDelta(shrink int) []float64 {
	const groups, perGroup = 10, 20
	slots := 20_000 / shrink
	src := keys.NewSource(keys.DefaultBits, sim.NewRNG(1).Uint64)
	auth, counts := make([]bool, groups), make([]int, groups)
	for g := range counts {
		auth[g], counts[g] = g >= 1 && g < 5, perGroup
	}

	sender := delta.NewLayeredSender(groups, src)
	senderNs, _ := measured(slots, func() {
		for i := 0; i < slots; i++ {
			ls := sender.BeginSlot(uint32(i), auth, counts)
			for g := 1; g <= groups; g++ {
				for p := 0; p < perGroup; p++ {
					ls.Fields(g)
				}
			}
		}
	})

	ls := sender.BeginSlot(1, auth, counts)
	var headers []*packet.FLIDHeader
	for g := 1; g <= groups; g++ {
		for p := 1; p <= perGroup; p++ {
			comp, dec := ls.Fields(g)
			headers = append(headers, &packet.FLIDHeader{Group: uint8(g), Slot: 1, Seq: uint16(p), Count: perGroup, HasDelta: true, Component: comp, Decrease: dec})
		}
	}
	receiver := delta.NewLayeredReceiver(groups)
	receiverNs, _ := measured(slots, func() {
		for i := 0; i < slots; i++ {
			receiver.Begin(1)
			for _, h := range headers {
				receiver.Observe(h, false)
			}
			receiver.Finish(groups, false)
		}
	})

	const levels = 5
	thresholds := make([]float64, levels)
	for i := range thresholds {
		thresholds[i] = 0.25 // RLM's per-level tolerance
	}
	ts := delta.NewThresholdSender(levels, thresholds, src, shamir.NewSplitter(sim.NewRNG(2).Uint64))
	thresholdSlots := slots / 10
	thresholdNs, _ := measured(thresholdSlots, func() {
		for i := 0; i < thresholdSlots; i++ {
			slot, err := ts.BeginSlot(uint32(i), auth[:levels], counts[:levels])
			if err != nil {
				panic(fmt.Sprintf("bench: threshold sender: %v", err))
			}
			for g := 1; g <= levels; g++ {
				for p := 0; p < perGroup; p++ {
					slot.Shares(g)
				}
			}
		}
	})
	return []float64{senderNs, receiverNs, thresholdNs}
}

// ---------------------------------------------------------------------------
// sigma

// driveSigma times the SIGMA edge controller's four per-slot operations on
// one edge with one local interface and a 10-group session: intercepting
// the slot's key announcement, validating a subscription whose ten keys are
// all right, rejecting one whose ten keys are all wrong, and the per-packet
// forwarding check.
func driveSigma(shrink int) []float64 {
	const groups = 10
	const slotDur = 250 * sim.Millisecond
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	net := netsim.New(sched, rng)
	fabric := mcast.NewFabric(net)
	edge := mcast.NewRouter(net, fabric, "edge")
	src, host := net.AddHost("src"), net.AddHost("h")
	net.Connect(src, edge, 10_000_000, sim.Millisecond, 1<<20)
	net.Connect(edge, host, 10_000_000, sim.Millisecond, 1<<20)
	net.ComputeRoutes()
	edge.AttachLocal(host)
	ctl := sigma.NewController(edge, sigma.DefaultConfig(slotDur))
	base := packet.MulticastBase
	for g := 0; g < groups; g++ {
		fabric.SetSource(packet.Group(base, g), src.ID())
	}
	sender := delta.NewLayeredSender(groups, keys.NewSource(keys.DefaultBits, rng.Fork().Uint64))
	auth, counts := make([]bool, groups), make([]int, groups)
	for g := range counts {
		counts[g] = 2
	}

	var announce, ok, deny, deliver stopwatch
	const checks = 256
	slots := 20_000 / shrink
	for i := 0; i < slots; i++ {
		slot := ctl.CurrentSlot() + 1
		keysOf := sender.BeginSlot(slot, auth, counts).Keys
		ann := packet.New(src.Addr(), base, 0, &packet.KeyAnnounce{Session: 1, Slot: slot, FECTotal: 1, Tuples: keysOf.Tuples(base)})
		ann.Alert = true
		good := &packet.SigmaHeader{Kind: packet.SigmaSubscribe, Slot: slot, AckID: uint32(2 * i)}
		bad := &packet.SigmaHeader{Kind: packet.SigmaSubscribe, Slot: slot, AckID: uint32(2*i + 1)}
		for g := 0; g < groups; g++ {
			addr := packet.Group(base, g)
			good.Pairs = append(good.Pairs, packet.AddrKey{Addr: addr, Key: keysOf.Top[g]})
			bad.Pairs = append(bad.Pairs, packet.AddrKey{Addr: addr, Key: keysOf.Top[g] ^ keys.Key(1+i%0xffff)})
		}
		goodPkt := packet.New(host.Addr(), edge.Addr(), 0, good)
		badPkt := packet.New(host.Addr(), edge.Addr(), 0, bad)

		announce.time(1, func() { ctl.Intercept(ann) })
		deny.time(1, func() { ctl.Control(badPkt, host.Addr()) })
		ok.time(1, func() { ctl.Control(goodPkt, host.Addr()) })
		deliver.time(checks, func() {
			for c := 0; c < checks; c++ {
				ctl.Deliver(packet.Group(base, c%groups), host.Addr())
			}
		})
		sched.RunUntil(sched.Now() + slotDur) // acks leave, the slot turns
	}
	// A wrong 16-bit key is, once in 65536 tries, the group's decrease key:
	// the split may be off by a handful, the total may not.
	want := uint64(slots * groups)
	if ctl.GrantsIssued+ctl.InvalidKeys != 2*want || ctl.InvalidKeys < want-want/1000-1 {
		panic(fmt.Sprintf("bench: sigma driver: %d grants and %d invalid keys, want %d of each", ctl.GrantsIssued, ctl.InvalidKeys, want))
	}
	return []float64{ok.nsPerOp(), deny.nsPerOp(), deliver.nsPerOp(), announce.nsPerOp()}
}

// ---------------------------------------------------------------------------
// cohort

// driveCohort times one slot of a session whose only receiver is a 10^6-
// member cohort: first with the population in one bucket, then while four
// members a slot leave or rejoin, which keeps some 64 buckets of rejoined
// members climbing at once. The slot includes the sender and the links; the
// difference between the two readings is what buckets cost.
func driveCohort(shrink int) []float64 {
	slots := 2000 / shrink
	run := func(togglesPerSlot int) float64 {
		e := deltasigma.MustNew(deltasigma.WithDumbbell(sessionShare), deltasigma.WithProtocol("flid-ds"), deltasigma.WithSeed(1))
		c := e.AddSession(0).AddCohort(1_000_000)
		e.Advance(30 * deltasigma.Second)
		rng := sim.NewRNG(3)
		samples := make([]float64, slots)
		for i := range samples {
			for t := 0; t < togglesPerSlot; t++ {
				c.Toggle(uint64(rng.IntN(1_000_000)))
			}
			t0 := time.Now()
			e.Advance(e.Now() + e.Slot())
			samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return median(samples)
	}
	return []float64{run(0), run(4)}
}

// ---------------------------------------------------------------------------
// invariant

func driveInvariant(shrink int) []float64 {
	receivers := 256 / min(shrink, 8)
	checks := 400 / min(shrink, 20)
	var check, drain []float64
	for round := 0; round < 3; round++ {
		e := deltasigma.MustNew(deltasigma.WithDumbbell(1_000_000), deltasigma.WithSeed(1), deltasigma.WithAudit())
		e.AddSession(receivers)
		e.Advance(5 * deltasigma.Second)
		perCheck, _ := measured(checks, func() {
			for i := 0; i < checks; i++ {
				e.Audit().Check()
			}
		})
		check = append(check, perCheck/1e3)
		t0 := time.Now()
		violations := e.DrainAndAudit(drainGrace)
		drain = append(drain, time.Since(t0).Seconds()*1e3)
		if len(violations) != 0 {
			panic(fmt.Sprintf("bench: invariant driver: %v", violations[0]))
		}
	}
	return []float64{median(check), median(drain)}
}

// ---------------------------------------------------------------------------
// campaign

func driveCampaign(shrink int) []float64 {
	jobs := 2_000_000 / shrink
	var sink [2]int
	overhead, _ := measured(jobs, func() {
		campaign.Run(jobs, 2, func(w, i int) error { sink[w] += i; return nil })
	})

	// Eight equal jobs, each a short protected session.
	job := func(w, i int) error {
		e := deltasigma.MustNew(deltasigma.WithDumbbell(500_000), deltasigma.WithSeed(uint64(i+1)))
		e.AddSession(2)
		e.Advance(deltasigma.Time(40/min(shrink, 10)) * deltasigma.Second)
		return nil
	}
	wall := func(workers int) float64 {
		var samples []float64
		for round := 0; round < 3; round++ {
			t0 := time.Now()
			campaign.Run(8, workers, job)
			samples = append(samples, time.Since(t0).Seconds())
		}
		return median(samples)
	}
	return []float64{overhead, wall(1) / wall(2)}
}

// ---------------------------------------------------------------------------
// facade

// driveFacadeHeap reports the live heap a started 1000-receiver experiment
// holds: HeapAlloc after a forced collection, less the same before it was
// built.
func driveFacadeHeap(shrink int) []float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e := deltasigma.MustNew(deltasigma.WithDumbbell(sessionShare), deltasigma.WithSeed(1))
	e.AddSession(1000 / min(shrink, 10))
	e.Advance(deltasigma.Second)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(e)
	return []float64{(float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6}
}

// ---------------------------------------------------------------------------
// sharding

// shardFanout is the dense fan-out the sharded engine targets (the shape of
// BenchmarkShardFanout): one protected session, 256 receivers with
// heterogeneous access delays on an 8 Mbps dumbbell. It reports the host
// seconds the timed window took and how the run was sharded.
func shardFanout(shards int, timed deltasigma.Time) (float64, *deltasigma.ShardingResult) {
	e := deltasigma.MustNew(
		deltasigma.WithDumbbell(8_000_000),
		deltasigma.WithSeed(9),
		deltasigma.WithShards(shards),
	)
	sess := e.AddSession(0)
	for i := 0; i < 256; i++ {
		sess.AddReceiverDelay(deltasigma.Time(20+i%41) * deltasigma.Millisecond)
	}
	const warm = 2 * deltasigma.Second
	e.Advance(warm)
	t0 := time.Now()
	e.Advance(warm + timed)
	wall := time.Since(t0).Seconds()
	return wall, e.Run(warm + timed).Sharding
}

func shardWindow(shrink int) deltasigma.Time {
	return deltasigma.Time(10/min(shrink, 5)) * deltasigma.Second
}

// driveSharding reports what two shards cost against the serial engine on
// the same fan-out. With two cores or fewer this is coordination overhead,
// not a speed-up; see sharding.scaling.
func driveSharding(shrink int) []float64 {
	timed := shardWindow(shrink)
	serial, _ := shardFanout(1, timed)
	sharded, how := shardFanout(2, timed)
	if how == nil || how.Shards != 2 {
		panic(fmt.Sprintf("bench: sharding driver: the fan-out did not run on 2 shards: %+v", how))
	}
	return []float64{sharded / serial, float64(how.Windows), how.Efficiency, sharded * 1e6 / float64(how.Windows)}
}

// shardScaling is the serial-over-four-shards speed-up of the fan-out. It
// needs four real cores; on a smaller host the reading is the literal
// "unmeasured", never a timesliced number that looks like data.
func shardScaling(shrink int) metric {
	m := metric{Name: "sharding.scaling", Unit: "ratio"}
	if runtime.NumCPU() < 4 {
		m.Text = "unmeasured"
		return m
	}
	// The benchmark pins GOMAXPROCS to 2; lift it for this one reading.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	timed := shardWindow(shrink)
	serial, _ := shardFanout(1, timed)
	sharded, _ := shardFanout(4, timed)
	m.Value = serial / sharded
	return m
}
