package deltasigma

import (
	"fmt"

	"deltasigma/internal/core"
	"deltasigma/internal/dynamics"
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
)

// sessionSpacing is the minimum gap between session group address blocks;
// schedules wider than this get a correspondingly wider block.
const sessionSpacing = 32

// blockSize returns the address-block stride for this experiment's
// schedule, so sessions never overlap however many groups they carry.
func (e *Experiment) blockSize() int {
	if n := e.schedule.N; n > sessionSpacing {
		return n
	}
	return sessionSpacing
}

// defaultPacketSize is the §5.1 wire size of data packets.
const defaultPacketSize = 576

// Experiment is a composable protected (or baseline) multicast setup: a
// topology, a protocol variant, multicast sessions with well-behaved
// receivers and attackers, and TCP/CBR cross traffic. Build one with New,
// wire sessions and cross traffic, then Run.
type Experiment struct {
	// Topo is the network the experiment runs on.
	Topo Topology
	// Protocol is the congestion control variant sessions run.
	Protocol Protocol

	seed      uint64
	slot      Time
	schedule  RateSchedule
	pktSize   int
	ecnFrac   float64
	cohortThr int  // AddSession populations above this aggregate (0 = never)
	noConsol  bool // WithFeedbackConsolidation(false)

	nextID    uint16
	started   bool
	stoppedAt Time // when StopTraffic first ran; 0 while traffic flows
	sessions  []*ExperimentSession
	tcps      []*TCPFlow
	cbrs      []*CBR

	// audit is the invariant layer attached by WithAudit (nil otherwise);
	// poolBase snapshots the pool's outstanding gauge at construction so
	// balance is judged per-experiment even on a shared campaign pool.
	audit    *Audit
	poolBase uint64

	// events holds declared timeline events until Start resolves them onto
	// the timeline; churns keeps the live Poisson generators for metrics.
	events   []TimelineEvent
	timeline dynamics.Timeline
	churns   []*dynamics.Churn

	// Sharded execution (WithShards; see shard.go): the group is non-nil
	// when the run partitions across per-core schedulers, shardWant records
	// the resolved request for reporting, and shardFallback says why a
	// requested sharded run executes serially.
	shardGroup    *sim.ShardGroup
	shardWant     int
	shardAuto     bool
	shardSeen     int
	shardNext     int
	shardMigrated int
	shardFallback string

	controllers []*sigma.Controller
	edgeAgents  []EdgeAgent
}

// New assembles an experiment from functional options. With no options it
// runs FLID-DS on a 1 Mbps paper dumbbell with the §5.1 schedule.
func New(opts ...Option) (*Experiment, error) {
	s := settings{
		seed:     1,
		schedule: core.PaperSchedule(),
		pktSize:  defaultPacketSize,
	}
	for _, opt := range opts {
		opt(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.protocol == nil {
		s.protocol, _ = LookupProtocol("flid-ds")
	}
	if s.slot == 0 {
		s.slot = s.protocol.DefaultSlot()
	}
	t := s.topology
	if t == nil {
		fn := s.topoFn
		if fn == nil {
			fn = func(seed uint64) Topology { return PaperDumbbell(1_000_000, seed) }
		}
		t = fn(s.seed)
	}
	if s.pool != nil {
		t.Network().SetPool(s.pool)
	}
	e := &Experiment{
		Topo:      t,
		Protocol:  s.protocol,
		seed:      s.seed,
		slot:      s.slot,
		schedule:  s.schedule,
		pktSize:   s.pktSize,
		ecnFrac:   s.ecnFrac,
		cohortThr: s.cohortThr,
		noConsol:  s.noConsol,
		events:    s.events,
		poolBase:  t.Network().Pool().Outstanding(),
	}
	if s.audit.enabled {
		e.audit = newAudit(e, s.audit)
	}
	e.setupShards(&s)
	return e, nil
}

// MustNew is New, panicking on option errors — for examples, tests and
// hardcoded configurations.
func MustNew(opts ...Option) *Experiment {
	e, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// mustNotHaveStarted guards wiring calls: once Start has run, routes are
// computed and agents are scheduled, so later additions would silently
// never run — fail loudly instead.
func (e *Experiment) mustNotHaveStarted(op string) {
	if e.started {
		panic(fmt.Sprintf("deltasigma: %s after the experiment has started", op))
	}
}

// Slot returns the slot duration sessions run on.
func (e *Experiment) Slot() Time { return e.slot }

// Seed returns the experiment seed.
func (e *Experiment) Seed() uint64 { return e.seed }

// ExperimentSession is one multicast session within an experiment.
type ExperimentSession struct {
	// Sess is the session descriptor.
	Sess *Session
	// Sender is the protocol source (type-assert for protocol-specific
	// statistics, e.g. *flid.Sender).
	Sender SenderAgent
	// Receivers holds every receiver in attachment order, attackers
	// included.
	Receivers []*Receiver
	// Cohorts holds every aggregated receiver population in attachment
	// order (see AddCohort).
	Cohorts []*Cohort

	exp   *Experiment
	index int
	src   *Host // the sender host; cohort feedback reports aim here

	// collusion is the session's shared attacker key pool, created lazily
	// by the first StrategyColluding attacker.
	collusion *sigma.Collusion
}

// Receiver wraps any protocol's receiver — or attacker — behind one
// interface.
type Receiver struct {
	agent ReceiverAgent
	atk   Inflater // nil for well-behaved receivers

	exp     *Experiment
	host    *Host
	edge    Addr // the gatekeeper address the receiver subscribes through
	session int
	index   int
	startAt Time
	manual  bool

	// strategy is the attacker behavior selected by WithStrategy (empty
	// for well-behaved receivers and attackers added without it);
	// forge is the feedback-forging engine of a StrategyForging attacker.
	strategy AttackerStrategy
	forge    *sigma.ForgeAttack
}

// StartAt defers the receiver's automatic start to virtual time t (the
// default is time zero — the staggered-join experiments use this). Call
// before the experiment starts; returns the receiver for chaining.
func (r *Receiver) StartAt(t Time) *Receiver {
	r.exp.mustNotHaveStarted("StartAt")
	r.startAt = t
	return r
}

// Manual suppresses the receiver's automatic start: it joins only when a
// ReceiverJoin event (or an explicit Start call) says so. Call before the
// experiment starts; returns the receiver for chaining.
func (r *Receiver) Manual() *Receiver {
	r.exp.mustNotHaveStarted("Manual")
	r.manual = true
	return r
}

// Start begins receiving (sessions started via Experiment.Start do this
// automatically). Safe mid-run: a stopped receiver re-joins the session at
// the minimal level — ReceiverJoin events resolve to this call.
func (r *Receiver) Start() { r.agent.Start() }

// Stop leaves the session. Safe mid-run — ReceiverLeave events resolve to
// this call; packets already queued or in flight drain normally.
func (r *Receiver) Stop() { r.agent.Stop() }

// Joined reports whether the receiver is currently subscribed (at any
// level) — the predicate membership churn toggles on.
func (r *Receiver) Joined() bool { return r.agent.Level() > 0 }

// Level reports the current subscription level (for replicated sessions,
// the current group).
func (r *Receiver) Level() int { return r.agent.Level() }

// Meter returns the receiver's throughput meter.
func (r *Receiver) Meter() *Meter { return r.agent.Meter() }

// Attacker reports whether this receiver was added with AddAttacker.
func (r *Receiver) Attacker() bool { return r.atk != nil }

// Inflate launches the inflated-subscription attack from this receiver (it
// must have been added with AddAttacker). For a StrategyForging attacker
// the forging loop starts alongside the inflation.
func (r *Receiver) Inflate() {
	if r.atk != nil {
		r.atk.Inflate()
	}
	if r.forge != nil {
		r.forge.Inflate()
	}
}

// Deflate calls the attack off mid-run (AttackerStop events resolve to
// this call): inflation joins are withdrawn and the attacker reverts to
// well-behaved congestion control. A no-op for receivers whose protocol
// attacker cannot stand down.
func (r *Receiver) Deflate() {
	if d, ok := r.agent.(Deflater); ok {
		d.Deflate()
	}
	if r.forge != nil {
		r.forge.Deflate()
	}
}

// Unwrap returns the concrete protocol agent (e.g. *flid.DSAttacker) for
// callers that need protocol-specific statistics.
func (r *Receiver) Unwrap() any { return r.agent }

// sched returns the scheduler the receiver's host lives on (its shard
// under sharded execution), defaulting to the experiment's main scheduler.
func (r *Receiver) sched(main *sim.Scheduler) *sim.Scheduler {
	if r.host != nil {
		return r.host.Scheduler()
	}
	return main
}

// Label names the receiver in results: S<session>R<index>, with an
// "(attacker)" suffix for attackers.
func (r *Receiver) Label() string {
	l := fmt.Sprintf("S%dR%d", r.session, r.index)
	if r.atk != nil {
		l += "(attacker)"
	}
	return l
}

// AddSession creates a multicast session with the experiment's schedule
// and the given number of well-behaved receivers at the topology's default
// egress.
func (e *Experiment) AddSession(receivers int) *ExperimentSession {
	e.mustNotHaveStarted("AddSession")
	e.nextID++
	sess := &core.Session{
		ID:         e.nextID,
		BaseAddr:   packet.MulticastBase + packet.Addr(int(e.nextID)*e.blockSize()),
		Rates:      e.schedule,
		SlotDur:    e.slot,
		PacketSize: e.pktSize,
	}
	src := e.Topo.AttachSource("")
	sess.Src = src.Addr()
	for _, a := range sess.Addrs() {
		e.Topo.Multicast().SetSource(a, src.ID())
	}
	s := &ExperimentSession{
		Sess:   sess,
		Sender: e.Protocol.NewSender(src, sess, e.Topo.Rand().Fork()),
		exp:    e,
		index:  int(e.nextID),
		src:    src,
	}
	if e.cohortThr > 0 && receivers > e.cohortThr {
		// WithCohortThreshold: a population this large rides the fluid
		// aggregate instead of per-packet receiver objects.
		s.AddCohort(receivers)
	} else {
		for i := 0; i < receivers; i++ {
			s.AddReceiver()
		}
	}
	e.sessions = append(e.sessions, s)
	return s
}

// Sessions returns every session in creation order.
func (e *Experiment) Sessions() []*ExperimentSession { return e.sessions }

// Source returns the session's sender host — the root of the distribution
// tree, and where cohort feedback reports terminate.
func (s *ExperimentSession) Source() *Host { return s.src }

// AddReceiver attaches one more well-behaved receiver at the topology's
// default egress with the default access delay.
func (s *ExperimentSession) AddReceiver() *Receiver {
	return s.AddReceiverDelay(DefaultDelay)
}

// AddReceiverDelay attaches a well-behaved receiver whose access link has
// the given propagation delay (the heterogeneous-RTT experiments; a
// negative delay — DefaultDelay — uses the topology default, zero is a
// genuine zero-delay link).
func (s *ExperimentSession) AddReceiverDelay(delay Time) *Receiver {
	return s.AddReceiverAt(s.exp.Topo.AttachReceiver("", delay))
}

// AddReceiverAt attaches a well-behaved receiver at an explicit port —
// obtained from a topology's placement methods (e.g. Chain.AttachReceiverAt,
// Star.AttachReceiverAt) for non-default placement.
func (s *ExperimentSession) AddReceiverAt(port Port) *Receiver {
	s.exp.mustNotHaveStarted("AddReceiver")
	// Migration must precede agent construction: agents capture the host's
	// scheduler, so the host has to be on its final shard first.
	s.exp.maybeMigrate(port.Host)
	agent := s.exp.Protocol.NewReceiver(port.Host, s.Sess, port.Edge.Addr())
	return s.wrap(agent, port.Host, port.Edge.Addr())
}

func (s *ExperimentSession) wrap(agent ReceiverAgent, host *Host, edge Addr) *Receiver {
	r := &Receiver{
		agent:   agent,
		exp:     s.exp,
		host:    host,
		edge:    edge,
		session: s.index,
		index:   len(s.Receivers) + 1,
	}
	if atk, ok := agent.(Inflater); ok {
		r.atk = atk
	}
	s.Receivers = append(s.Receivers, r)
	return r
}

// Start finalizes wiring — routes, one gatekeeper per edge router (SIGMA
// controllers for protected protocols, plain IGMP otherwise), ECN marking
// if enabled — and schedules every sender, receiver and cross-traffic
// source. Idempotent; Run calls it automatically.
func (e *Experiment) Start() {
	if e.started {
		return
	}
	e.started = true
	e.Topo.Finish()

	if e.ecnFrac > 0 {
		for _, l := range e.Topo.Bottlenecks() {
			if l.Queue.CapBytes > 0 {
				l.Queue.MarkAt = int(e.ecnFrac * float64(l.Queue.CapBytes))
			}
		}
	}

	for _, edge := range e.Topo.Edges() {
		if e.Protocol.Protected() {
			ctl := sigma.NewController(edge, sigma.DefaultConfig(e.slot))
			if e.ecnFrac > 0 {
				ctl.EnableECNScrub(keys.NewSource(keys.DefaultBits, e.Topo.Rand().Fork().Uint64))
			}
			e.controllers = append(e.controllers, ctl)
		} else {
			mcast.NewIGMP(edge)
		}
	}

	// Cohort feedback — and the per-slot receiver reports of feedback-driven
	// protocols like dsc and abr-cf — flows as unicast reports toward each
	// session source; with consolidation on (the default), every router
	// merges the child reports of a slot into one before forwarding, so the
	// source-side control volume scales with tree fan-out, not population.
	consumes := false
	if fd, ok := e.Protocol.(FeedbackDriven); ok {
		consumes = fd.ConsumesFeedback()
	}
	if (len(e.Cohorts()) > 0 || consumes) && !e.noConsol {
		e.enableConsolidation()
	}

	sched := e.Topo.Scheduler()

	// Network-assisted protocols hang an agent on every gatekept edge
	// (mfcc's fair-share advertiser), created after the gatekeepers above
	// so the agents can interrogate the installed membership policy.
	if ea, ok := e.Protocol.(EdgeAssisted); ok {
		sessList := make([]*Session, len(e.sessions))
		for i, s := range e.sessions {
			sessList[i] = s.Sess
		}
		for _, edge := range e.Topo.Edges() {
			agent := ea.NewEdgeAgent(edge, sessList)
			e.edgeAgents = append(e.edgeAgents, agent)
			sched.At(0, agent.Start)
		}
	}
	for _, s := range e.sessions {
		s := s
		sched.At(0, s.Sender.Start)
		// Consecutive receivers sharing a start time are fed to the slot
		// batches behind one event instead of one timer each: they start
		// in attach order, which is exactly the order their individual
		// events would have fired — they were scheduled consecutively, so
		// their tie-break seqs were adjacent. Under sharded execution each
		// receiver starts on its own host's scheduler, so batches are keyed
		// on (start time, scheduler); receivers on distinct shards touch
		// disjoint state, and their cross-shard effects merge in attach
		// order through the cut edges.
		var batch []*Receiver
		var batchAt Time
		var batchSched *sim.Scheduler
		flush := func() {
			if len(batch) == 0 {
				return
			}
			b, on := batch, batchSched
			batch = nil
			on.At(batchAt, func() {
				for _, r := range b {
					r.Start()
				}
			})
		}
		for _, r := range s.Receivers {
			if r.manual {
				continue // joins only by timeline event or explicit Start
			}
			rs := r.sched(sched)
			if len(batch) > 0 && (r.startAt != batchAt || rs != batchSched) {
				flush()
			}
			batchAt, batchSched = r.startAt, rs
			batch = append(batch, r)
		}
		flush()
		for _, c := range s.Cohorts {
			if c.manual {
				continue
			}
			c := c
			sched.At(c.startAt, c.Start)
		}
	}
	for _, f := range e.tcps {
		f.schedule(sched)
	}
	for _, c := range e.cbrs {
		c.schedule(e)
	}

	// Attacker strategies that depend on the wired experiment: forging
	// attackers learn the co-located honest receivers whose grants they
	// will tear down, and adaptive attackers compile their inflation
	// schedule from the declared timeline (before resolveEvents installs
	// it, so both kinds of entries share one declaration order).
	for _, s := range e.sessions {
		for _, r := range s.Receivers {
			if r.forge != nil {
				r.forge.Arm(s.victimAddrs(r))
			}
			if r.strategy == StrategyAdaptive {
				e.scheduleAdaptive(r)
			}
		}
	}

	// Resolve the declared timeline last, so events see the fully wired
	// experiment, and install it. A resolution failure is a wiring bug (a
	// session or link index that does not exist) and panics like every
	// other mis-wiring of the builder.
	if err := e.resolveEvents(); err != nil {
		panic("deltasigma: " + err.Error())
	}
	e.timeline.Install(sched)

	if e.audit != nil {
		e.audit.install(sched)
	}
}

// Controllers returns the SIGMA controllers installed at Start (empty for
// unprotected experiments or before Start).
func (e *Experiment) Controllers() []*sigma.Controller { return e.controllers }

// EdgeAgents returns the per-edge protocol agents installed at Start
// (empty unless the protocol is EdgeAssisted).
func (e *Experiment) EdgeAgents() []EdgeAgent { return e.edgeAgents }

// At schedules fn at virtual time t.
func (e *Experiment) At(t Time, fn func()) { e.Topo.Scheduler().At(t, fn) }

// Now returns the current virtual time.
func (e *Experiment) Now() Time { return e.Topo.Scheduler().Now() }

// Advance runs the simulation to the given virtual time (starting the
// experiment if needed) without snapshotting results — the cheap stepping
// primitive for loops that read meters directly. Times already in the
// past are a no-op; virtual time never rewinds.
func (e *Experiment) Advance(until Time) {
	e.Start()
	if until < e.Now() {
		return
	}
	if e.shardsActive() {
		// Conservative-window parallel execution across the shard group;
		// results are byte-identical to the serial path below.
		e.shardGroup.RunUntil(until)
		return
	}
	e.Topo.Scheduler().RunUntil(until)
}

// Run advances the simulation to the given virtual time, starting the
// experiment first if Start has not been called, and returns the typed
// results accumulated from time zero. Call repeatedly with growing times
// to step through an experiment — or use Advance for steps whose Result
// you would discard (the snapshot rebuilds every receiver's series). An
// `until` already in the past snapshots at the current time instead.
func (e *Experiment) Run(until Time) *Result {
	e.Advance(until)
	return e.result(e.Now())
}
