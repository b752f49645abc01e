package deltasigma

import (
	"fmt"

	"deltasigma/internal/sim"
)

// This file is the experiment-level face of sharded execution (see
// internal/sim/shard.go for the conservative-window engine and
// internal/netsim/shard.go for the topology cut). The experiment decides
// the partition: receiver hosts migrate to shards 1..n-1 in attachment
// order, round-robin, while everything shared — routers, the multicast
// fabric, senders, cohorts, cross traffic — stays on shard 0. Attachment
// order doubles as cut-edge creation order, which is what makes the merged
// event order replay a serial run exactly.

// shardConflict refuses the construction options a sharded experiment
// cannot honour: both read or mutate state across the shard cut mid-run.
func (s *settings) shardConflict() error {
	if s.shards < 2 {
		return nil
	}
	switch {
	case s.audit.enabled:
		return fmt.Errorf("deltasigma: WithShards(%d) with WithAudit: mid-run sampling reads cross-shard state", s.shards)
	case len(s.events) > 0:
		return fmt.Errorf("deltasigma: WithShards(%d) with WithTimeline: dynamics mutate cross-shard state", s.shards)
	}
	return nil
}

// setupShards wires the shard group during New (WithShards(n ≥ 2) only).
func (e *Experiment) setupShards(n int) {
	e.shardWant = n
	if n < 2 {
		return
	}
	e.shardGroup = sim.NewShardGroupFrom(e.Topo.Scheduler(), n)
	e.shardGroup.Parallel = true
	e.Topo.Network().EnableSharding(e.shardGroup)
}

// shardRefusal is the error of a wiring call whose runtime behaviour would
// cross the shard cut of an experiment built with WithShards(n ≥ 2).
func (e *Experiment) shardRefusal(call, why string) error {
	return fmt.Errorf("deltasigma: %s on an experiment built with WithShards(%d): %s", call, e.shardWant, why)
}

// maybeMigrate moves a freshly attached receiver host onto the next shard,
// round-robin over shards 1..n-1. It must run before the protocol agent is
// constructed on the host — agents capture the host's scheduler. Hosts
// that cannot migrate (zero-delay access links) stay on shard 0.
func (e *Experiment) maybeMigrate(h *Host) {
	if e.shardGroup == nil {
		return
	}
	net := e.Topo.Network()
	if !net.CanMigrate(h) {
		return
	}
	net.MigrateHost(h, 1+e.shardMigrated%(e.shardGroup.Shards()-1))
	e.shardMigrated++
}

// shardsActive reports whether Advance must dispatch through the shard
// group: with no migrated host every event lives on shard 0 and the plain
// scheduler path is both correct and cheaper.
func (e *Experiment) shardsActive() bool {
	return e.shardGroup != nil && e.shardMigrated > 0
}

// ShardResult is one shard's share of a sharded run (see sim.ShardStats).
type ShardResult struct {
	// Events is the number of events the shard's scheduler fired.
	Events uint64 `json:"events"`
	// BarrierWaitNs is wall-clock time the shard spent finished-but-waiting
	// at window barriers — the load-imbalance measure.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	// MailboxMax is the high-water mark of cross-shard envelopes drained
	// into this shard at a single barrier.
	MailboxMax int `json:"mailbox_max"`
}

// ShardingResult describes how a run built with WithShards executed.
// Wall-clock fields (barrier waits) vary run to run; everything the
// simulation computes is byte-identical to a serial run regardless.
type ShardingResult struct {
	// Shards is the executing shard count: 1 for WithShards(1), and for a
	// run whose receiver hosts could not migrate.
	Shards int `json:"shards"`
	// MigratedHosts is how many receiver hosts run off shard 0.
	MigratedHosts int `json:"migrated_hosts"`
	// Windows is the number of conservative window rounds executed.
	Windows uint64 `json:"windows,omitempty"`
	// Efficiency is sum(events) / (shards × max-shard events) in (0,1]: 1
	// means perfectly balanced shards, 1/shards means one shard did all the
	// work.
	Efficiency float64 `json:"efficiency,omitempty"`
	// PerShard holds one entry per shard, shard 0 first.
	PerShard []ShardResult `json:"per_shard,omitempty"`
}

// shardingResult snapshots the sharded-execution stats for Result, or nil
// when WithShards was never given.
func (e *Experiment) shardingResult() *ShardingResult {
	if e.shardWant == 0 {
		return nil
	}
	if !e.shardsActive() {
		return &ShardingResult{Shards: 1}
	}
	stats := e.shardGroup.Stats()
	sr := &ShardingResult{
		Shards:        e.shardGroup.Shards(),
		MigratedHosts: e.shardMigrated,
		PerShard:      make([]ShardResult, len(stats)),
	}
	var sum, max uint64
	for i, st := range stats {
		sr.PerShard[i] = ShardResult{
			Events:        st.Events,
			BarrierWaitNs: st.BarrierWait.Nanoseconds(),
			MailboxMax:    st.MailboxMax,
		}
		sum += st.Events
		if st.Events > max {
			max = st.Events
		}
		if st.Windows > sr.Windows {
			sr.Windows = st.Windows
		}
	}
	if max > 0 {
		sr.Efficiency = float64(sum) / (float64(len(stats)) * float64(max))
	}
	return sr
}
