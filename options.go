package deltasigma

import (
	"fmt"

	"deltasigma/internal/packet"
	"deltasigma/internal/topo"
)

// settings accumulates the functional options New applies.
type settings struct {
	seed     uint64
	topology TopologySpec // built by New on seed
	protocol Protocol
	schedule RateSchedule
	slot     Time // 0 selects the protocol default
	pktSize  int
	ecnFrac  float64
	noConsol bool
	pool     *packet.Pool
	events   []TimelineEvent
	audit    auditSettings
	shards   int // WithShards; 0 when not given
	err      error
}

// Option configures an Experiment under construction.
type Option func(*settings)

func (s *settings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithSeed fixes the seed driving all experiment randomness (topology RNG,
// sender jitter, DELTA key generation). The default is 1.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.seed = seed }
}

// TopologySpec names a network by value: its kind ("dumbbell", "chain" or
// "star"), one capacity per hop and the hops' propagation delay (0 takes
// the §5.1 20 ms). Every shape is one Tree of branch points: a dumbbell is
// one hop, a chain puts its hops in series and a star puts them in
// parallel, one SIGMA gatekeeper per spoke. Check names the first rule a
// spec breaks; New builds the tree on the experiment seed; the fuzzer
// writes the value into repro files as it stands.
type TopologySpec = topo.Spec

// WithTopology runs the experiment on the network t names, built once New
// has resolved the experiment seed. A chain's receivers attach at its far
// end by default; a star's round-robin across its spokes.
func WithTopology(t TopologySpec) Option {
	t.CapacitiesBps = append([]int64(nil), t.CapacitiesBps...)
	return func(s *settings) {
		if err := t.Check(); err != nil {
			s.fail(err)
			return
		}
		s.topology = t
	}
}

// WithDumbbell runs the experiment on the §5.1 dumbbell with the given
// bottleneck capacity in bits/s. This is the default topology (at 1 Mbps)
// when no topology option is given.
func WithDumbbell(bottleneck int64) Option {
	return WithTopology(TopologySpec{Kind: "dumbbell", CapacitiesBps: []int64{bottleneck}})
}

// WithProtocol selects a registered congestion control variant by name
// (see Protocols for the list). The default is "flid-ds".
func WithProtocol(name string) Option {
	return func(s *settings) {
		p, ok := LookupProtocol(name)
		if !ok {
			s.fail(fmt.Errorf("deltasigma: unknown protocol %q (registered: %v)", name, Protocols()))
			return
		}
		s.protocol = p
	}
}

// WithProtocolImpl runs the experiment on a Protocol value directly,
// registered or not — custom rows and parameterized variants (e.g.
// ThresholdProtocol with explicit tolerances) enter here. New rejects a
// value with an empty Name, a nil Sender or Receiver, or a Slot ≤ 0.
func WithProtocolImpl(p Protocol) Option {
	return func(s *settings) { s.protocol = p }
}

// WithSchedule overrides the rate schedule of every session the
// experiment creates. The default is PaperSchedule.
func WithSchedule(rs RateSchedule) Option {
	return func(s *settings) {
		if err := rs.Check(); err != nil {
			s.fail(err)
			return
		}
		s.schedule = rs
	}
}

// WithSlot overrides the slot duration of every session the experiment
// creates. The default is the protocol's Slot.
func WithSlot(d Time) Option {
	return func(s *settings) {
		if d <= 0 {
			s.fail(fmt.Errorf("deltasigma: WithSlot(%v) must be positive", d))
			return
		}
		s.slot = d
	}
}

// WithPacketSize overrides the wire size of data packets in bytes. The
// default is the paper's 576.
func WithPacketSize(bytes int) Option {
	return func(s *settings) {
		if bytes <= 0 {
			s.fail(fmt.Errorf("deltasigma: WithPacketSize(%d) must be positive", bytes))
			return
		}
		s.pktSize = bytes
	}
}

// WithPacketPool injects a shared packet pool into the experiment's
// network. The simulation recycles packet envelopes through the pool, so a
// caller that runs many experiments sequentially — a campaign worker
// stepping through grid points — hands each one the same warm pool and the
// per-experiment allocation spike disappears. The pool also carries
// scheduler memory: Close parks a finished experiment's calendar and event
// freelist in it, and the next experiment built on the pool takes them
// over. A pool must never be shared by experiments running concurrently;
// each campaign worker owns its own.
func WithPacketPool(p *packet.Pool) Option {
	return func(s *settings) {
		if p == nil {
			s.fail(fmt.Errorf("deltasigma: WithPacketPool(nil)"))
			return
		}
		s.pool = p
	}
}

// WithTimeline scripts typed mid-run events against virtual time:
// membership churn (ReceiverJoin/ReceiverLeave/PoissonChurn), attacker
// lifecycle (AttackerOnset/AttackerStop) and link dynamics
// (LinkSetCapacity/LinkSetDelay/LinkDown/LinkUp/LinkFlap). New refuses a
// nil event or a value out of range — a rate, window, capacity, delay or
// flap period — with an error naming the event. Events carry symbolic
// session/receiver/link indices and are resolved when the experiment
// starts, so the timeline can be declared before any session is wired. It
// is the one way to schedule anything after Start; repeated options
// accumulate.
func WithTimeline(events ...TimelineEvent) Option {
	return func(s *settings) {
		for _, ev := range events {
			if err := checkValues(ev); err != nil {
				s.fail(fmt.Errorf("deltasigma: %w", err))
				return
			}
		}
		s.events = append(s.events, events...)
	}
}

// WithFeedbackConsolidation toggles hierarchical consolidation of cohort
// feedback reports at the routers (default on whenever cohorts exist):
// each router merges the child reports of a (session, slot) into one and
// forwards it upstream, so source-side control traffic scales with the
// distribution tree's fan-out rather than the receiver population. Off,
// every cohort's per-slot report travels to the source individually.
func WithFeedbackConsolidation(on bool) Option {
	return func(s *settings) { s.noConsol = !on }
}

// WithShards runs the experiment across n parallel shards: each receiver
// host that can migrate (single-homed, positive-delay access links) moves
// to one of shards 1..n-1 in attachment order, round-robin, and runs on its
// own per-core scheduler; conservative lookahead windows keep results
// byte-identical to a serial run — sharding changes wall-clock time, never
// output. n must be at least 1; n = 1 is explicit serial execution.
//
// With n ≥ 2 the experiment must be static, and every call that would
// cross the shard cut mid-run is refused rather than run serially:
//   - New returns an error when WithAudit or WithTimeline is also given;
//   - TryAddAttacker returns an error for any non-classic strategy, and
//     AddAttacker panics with it.
//
// A run with no migratable receiver host executes on shard 0 and reports
// Shards 1, MigratedHosts 0 in Result.Sharding.
func WithShards(n int) Option {
	return func(s *settings) {
		if n < 1 {
			s.fail(fmt.Errorf("deltasigma: WithShards(%d) must be at least 1", n))
			return
		}
		s.shards = n
	}
}

// WithECN turns on threshold ECN marking at every bottleneck queue:
// packets enqueued beyond markFraction of the queue capacity are CE-marked
// instead of relying on loss alone, and protected experiments scrub the
// DELTA component of marked packets at the edge (§3.1.2 congestion
// notification — a mark denies keys exactly like a loss, but no data is
// thrown away).
func WithECN(markFraction float64) Option {
	return func(s *settings) {
		if markFraction <= 0 || markFraction >= 1 {
			s.fail(fmt.Errorf("deltasigma: WithECN(%v) must be in (0,1)", markFraction))
			return
		}
		s.ecnFrac = markFraction
	}
}
