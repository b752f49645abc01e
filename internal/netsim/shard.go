package netsim

// This file binds a Network to sharded execution (internal/sim's
// ShardGroup). The partition is host-granular and deliberately narrow: only
// single-homed hosts whose access links have positive propagation delay can
// migrate off the main shard, because
//
//   - the access-link delay is the conservative lookahead of the cut, and a
//     zero-delay cut would force zero-width windows;
//   - everything else — routers, the multicast fabric, unicast routes, the
//     address map — is shared mutable state that must stay on one shard
//     (shard 0) to keep graft/prune and forwarding decisions instantaneous
//     and deterministic.
//
// A migrated host's two access links become "cut" links. The upstream link
// (host→router) moves entirely to the host's shard — its queue and
// serialization belong to the sender side — and posts deliveries into shard
// 0; the downstream link stays on shard 0 and posts deliveries into the
// host's shard. Packets crossing a cut are copied between the shard-local
// pools at window barriers (all shards quiescent), so each pool's balance
// closes independently and no packet object is ever touched by two shards.
//
// Determinism: cross-shard deliveries carry the sender-side reservation
// instant and are merged in (time, akey, edge, post) order (see
// sim.ShardGroup). Cut edges are created in host-migration order, which
// experiments arrange to be receiver attachment order — the same order
// routers fan out local deliveries and receivers answer them — so ties
// across links resolve exactly as the serial scheduler's arming order
// would, and results are byte-identical to a one-shard run.

import (
	"fmt"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// cutPort is the shard-boundary attachment of a cut link: the sim-level
// cross edge plus the two packet hand-off FIFOs.
type cutPort struct {
	edge    *sim.CrossEdge
	dstPool *packet.Pool
	xfer    ring[*packet.Packet] // originals parked by the source side
	handoff ring[*packet.Packet] // destination-pool copies awaiting delivery
	deliver func()               // the posted delivery closure (one per link)
}

// shardState is the network's sharding mode.
type shardState struct {
	group *sim.ShardGroup
	pools []*packet.Pool
	uids  []uint64 // per-shard UID counters (disjoint namespaces)
}

// EnableSharding binds the network to a shard group whose shard 0 is the
// network's own scheduler. Call once, after construction and before any
// host migrates. The network's main pool becomes shard 0's pool; fresh
// pools back the other shards.
func (n *Network) EnableSharding(group *sim.ShardGroup) {
	if group.Shard(0) != n.sched {
		panic("netsim: shard group's shard 0 must be the network scheduler")
	}
	if n.shard != nil {
		panic("netsim: sharding already enabled")
	}
	pools := make([]*packet.Pool, group.Shards())
	pools[0] = n.pool
	for i := 1; i < len(pools); i++ {
		pools[i] = &packet.Pool{}
	}
	n.shard = &shardState{group: group, pools: pools, uids: make([]uint64, group.Shards())}
}

// ShardPools returns the per-shard packet pools (index 0 is the main
// pool), or nil when sharding is off — the audit layer rolls pool balance
// up across them.
func (n *Network) ShardPools() []*packet.Pool {
	if n.shard == nil {
		return nil
	}
	return n.shard.pools
}

// shardUID mints a trace UID from shard s's namespace: the shard index in
// the top byte keeps per-shard counters collision-free without sharing a
// counter across goroutines. UIDs never influence protocol behaviour or
// results — they exist for tracing only — so the sharded namespace is
// allowed to differ from serial numbering.
func (n *Network) shardUID(s int) uint64 {
	n.shard.uids[s]++
	return uint64(s)<<56 | n.shard.uids[s]
}

// CanMigrate reports whether h could move to a non-zero shard: sharding
// enabled, the host single-homed behind an access link pair with positive
// delay in both directions.
func (n *Network) CanMigrate(h *Host) bool {
	if n.shard == nil || h.sched != nil {
		return false
	}
	up := n.accessLink(h.id)
	if up == nil || up.Delay <= 0 {
		return false
	}
	down := n.LinkBetween(up.dst.ID(), h.id)
	return down != nil && down.Delay > 0
}

// MigrateHost moves h onto shard s: its agents will schedule on shard s's
// scheduler and mint from shard s's pool, its upstream access link runs on
// shard s, and both access links become cut links. Must be called before
// any agent is constructed on the host (agents capture the scheduler) and
// before traffic starts. Callers migrate hosts in attachment order so cut
// edge IDs replay the serial tie-break order.
func (n *Network) MigrateHost(h *Host, s int) {
	if n.shard == nil {
		panic("netsim: MigrateHost without EnableSharding")
	}
	if s <= 0 || s >= len(n.shard.pools) {
		panic(fmt.Sprintf("netsim: MigrateHost to invalid shard %d", s))
	}
	if !n.CanMigrate(h) {
		panic(fmt.Sprintf("netsim: host %s cannot migrate (zero-delay or missing access links)", h.name))
	}
	up := n.accessLink(h.id)
	down := n.LinkBetween(up.dst.ID(), h.id)

	h.sched = n.shard.group.Shard(s)
	h.pool = n.shard.pools[s]
	h.shard = s

	// The upstream link's queue and serialization belong to the host side:
	// the whole link moves to shard s and re-arms its timers there. Its cut
	// posts deliveries to shard 0. The downstream link keeps the router-side
	// scheduler and posts deliveries to shard s. Edge order (up before down)
	// is fixed; what matters for determinism is that successive migrations
	// allocate monotonically increasing edge IDs.
	up.sched = h.sched
	up.init()
	attachCut(up, n.shard.group.AddEdge(s, 0, up.Delay), n.shard.pools[0], n.shard.group)
	attachCut(down, n.shard.group.AddEdge(0, s, down.Delay), n.shard.pools[s], n.shard.group)
}

// attachCut wires a link to its cross edge and registers the barrier-time
// packet hand-off.
func attachCut(l *Link, edge *sim.CrossEdge, dstPool *packet.Pool, g *sim.ShardGroup) {
	c := &cutPort{edge: edge, dstPool: dstPool}
	c.deliver = func() {
		// Runs on the destination shard at the arrival time. The barrier
		// hand-off ran before this envelope could fire, so the copy is
		// always at the head of the ring; per-link FIFO order is preserved
		// because cut links are never re-parameterized (guardCut).
		pkt := c.handoff.pop()
		l.Delivered++
		if l.OnDeliver != nil {
			l.OnDeliver(pkt)
		}
		l.dst.Receive(pkt, l)
	}
	l.cut = c
	g.AtBarrier(func() { drainCut(l, c) })
}

// drainCut runs at window barriers (every shard quiescent): each parked
// original is copied into the destination shard's pool and released back
// to its own, in post order.
func drainCut(l *Link, c *cutPort) {
	for c.xfer.len() > 0 {
		orig := c.xfer.pop()
		c.handoff.push(c.dstPool.AdoptCopy(orig))
		orig.Release()
	}
}

// guardCut panics when a live mutator touches a cut link: sharded
// experiments exclude link dynamics (the facade refuses timelines), and
// re-parameterizing a cut mid-run would break both the lookahead contract
// (delay) and the FIFO hand-off (down/up flushing).
func (l *Link) guardCut(op string) {
	if l.cut != nil {
		panic(fmt.Sprintf("netsim: %s on cut link %s (sharded runs exclude link dynamics)", op, l))
	}
}
