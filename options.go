package deltasigma

import (
	"fmt"

	"deltasigma/internal/packet"
	"deltasigma/internal/topo"
)

// settings accumulates the functional options New applies.
type settings struct {
	seed     uint64
	topology func(seed uint64) Topology // seeded by New
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

// WithTopology builds the experiment's network once New has resolved the
// experiment seed; build receives that seed. This is the generic hook custom
// topologies plug in through; WithDumbbell, WithChain and WithStar are its
// shorthands for the three built-in shapes.
func WithTopology(build func(seed uint64) Topology) Option {
	return func(s *settings) {
		if build == nil {
			s.fail(fmt.Errorf("deltasigma: WithTopology(nil)"))
			return
		}
		s.topology = build
	}
}

// checkCaps validates a capacity list so topology options honor New's
// error contract instead of panicking inside the deferred builder.
func checkCaps(opt string, caps []int64) error {
	if len(caps) == 0 {
		return fmt.Errorf("deltasigma: %s needs at least one capacity", opt)
	}
	for _, c := range caps {
		if c <= 0 {
			return fmt.Errorf("deltasigma: %s capacity %d must be positive", opt, c)
		}
	}
	return nil
}

// The three built-in shapes, shared by the topology options and the sweep
// specs.

func dumbbell(bottleneck int64, seed uint64) Topology {
	return topo.New(topo.PaperConfig(bottleneck, seed))
}

func chain(caps []int64, seed uint64) Topology {
	return topo.NewChain(topo.ChainConfig{Bottlenecks: caps, Seed: seed})
}

func star(caps []int64, seed uint64) Topology {
	return topo.NewStar(topo.StarConfig{Spokes: caps, Seed: seed})
}

// WithDumbbell runs the experiment on the §5.1 dumbbell with the given
// bottleneck capacity in bits/s. This is the default topology (at 1 Mbps)
// when no topology option is given.
func WithDumbbell(bottleneck int64) Option {
	if err := checkCaps("WithDumbbell", []int64{bottleneck}); err != nil {
		return func(s *settings) { s.fail(err) }
	}
	return WithTopology(func(seed uint64) Topology { return dumbbell(bottleneck, seed) })
}

// WithChain runs the experiment on a multi-bottleneck chain with the given
// per-hop capacities in bits/s, ingress to egress; receivers attach at the
// far end by default.
func WithChain(capacities ...int64) Option {
	caps := append([]int64(nil), capacities...)
	if err := checkCaps("WithChain", caps); err != nil {
		return func(s *settings) { s.fail(err) }
	}
	return WithTopology(func(seed uint64) Topology { return chain(caps, seed) })
}

// WithStar runs the experiment on a star with one bottleneck spoke (and
// one gatekeeping edge router) per capacity; receivers round-robin across
// the spokes.
func WithStar(capacities ...int64) Option {
	caps := append([]int64(nil), capacities...)
	if err := checkCaps("WithStar", caps); err != nil {
		return func(s *settings) { s.fail(err) }
	}
	return WithTopology(func(seed uint64) Topology { return star(caps, seed) })
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

// WithProtocolImpl runs the experiment on a Protocol instance directly,
// registered or not — custom implementations and parameterized variants
// (e.g. ThresholdProtocol with explicit tolerances) enter here.
func WithProtocolImpl(p Protocol) Option {
	return func(s *settings) {
		if p == nil {
			s.fail(fmt.Errorf("deltasigma: WithProtocolImpl(nil)"))
			return
		}
		s.protocol = p
	}
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
// creates. The default is the protocol's DefaultSlot.
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
// per-experiment allocation spike disappears. A pool must never be shared
// by experiments running concurrently; each campaign worker owns its own.
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
// (LinkSetCapacity/LinkSetDelay/LinkDown/LinkUp/LinkFlap). Events carry
// symbolic session/receiver/link indices and are resolved when the
// experiment starts, so the timeline can be declared before any session is
// wired. Repeated options and AddEvents calls accumulate.
func WithTimeline(events ...TimelineEvent) Option {
	return func(s *settings) {
		for _, ev := range events {
			if ev == nil {
				s.fail(fmt.Errorf("deltasigma: WithTimeline(nil event)"))
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
//     AddAttacker panics with it;
//   - AddEvents panics.
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
