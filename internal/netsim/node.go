// Package netsim models the network itself: nodes joined by unidirectional
// rate/delay links with drop-tail queues, unicast routing over a tree, and
// hosts that hand received packets to protocol agents. Together with
// internal/sim it fills the role NS-2 plays in the paper.
package netsim

import (
	"fmt"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// NodeID identifies a node within one Network.
type NodeID int

// Node is anything packets can arrive at: hosts, core routers, edge routers.
type Node interface {
	// ID returns the node's network-unique identifier.
	ID() NodeID
	// Name returns the human-readable label used in traces.
	Name() string
	// Receive handles a packet arriving over from (nil when injected
	// locally by an agent on this node).
	Receive(pkt *packet.Packet, from *Link)
}

// Doomer is a first-hop node that can tell a source, before the source
// builds a packet, that the packet would end on arrival with no effect:
// the node would forward it nowhere and deliver it to no one, and nothing
// can change that before it lands. mcast.Router implements it.
type Doomer interface {
	// Doomed reports whether a packet to dst that reaches the node over in
	// at arrive would die there unseen.
	Doomed(dst packet.Addr, in *Link, arrive sim.Time) bool
}

// Handler consumes packets delivered to a host.
type Handler func(pkt *packet.Packet)

// Host is an end system. Protocol agents attach per-protocol handlers; a
// host never forwards traffic.
type Host struct {
	id       NodeID
	name     string
	addr     packet.Addr
	net      *Network
	access   *Link  // cached single outgoing link (hosts are single-homed)
	doomer   Doomer // the access link's far end, when it is one
	handlers [16]Handler
	anyProto Handler

	// shard is non-nil once the host migrated (sharded execution); a nil
	// one means the host lives on the network's main scheduler and pool
	// (shard 0).
	shard *hostShard

	// Received counts packets delivered to this host, by protocol.
	Received [16]uint64
	// RecvBytes counts bytes delivered to this host.
	RecvBytes uint64
}

// hostShard is where a migrated host runs its agents: its shard's
// scheduler and pool.
type hostShard struct {
	sched *sim.Scheduler
	pool  *packet.Pool
	index int
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Addr returns the host's unicast address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// Handle registers fn for packets of protocol p delivered to the host.
func (h *Host) Handle(p packet.Proto, fn Handler) { h.handlers[p] = fn }

// HandleAll registers fn to observe every delivered packet, after the
// per-protocol handler.
func (h *Host) HandleAll(fn Handler) { h.anyProto = fn }

// Receive implements Node: account the delivery, dispatch to handlers, and
// release the delivery reference — a handler that keeps the packet beyond
// its return must Retain it.
func (h *Host) Receive(pkt *packet.Packet, from *Link) {
	h.Received[pkt.Proto]++
	h.RecvBytes += uint64(pkt.Size)
	if fn := h.handlers[pkt.Proto]; fn != nil {
		fn(pkt)
	}
	if h.anyProto != nil {
		h.anyProto(pkt)
	}
	pkt.Release()
}

// Send transmits pkt from this host toward pkt.Dst over the host's access
// link (hosts are single-homed; multihomed hosts are not needed by any
// experiment). Multicast destinations are handed to the access router too:
// group delivery is the router's job.
func (h *Host) Send(pkt *packet.Packet) { h.link().Send(pkt) }

// link returns the host's access link, resolving it and its far end's
// Doomer on first use: links are never removed, so the first out-link is
// stable.
func (h *Host) link() *Link {
	if h.access == nil {
		h.access = h.net.accessLink(h.id)
		if h.access == nil {
			panic(fmt.Sprintf("netsim: host %s has no access link", h.name))
		}
		h.doomer, _ = h.access.dst.(Doomer)
	}
	return h.access
}

// SendIfDoomed sends, in place of a size-byte packet to dst, a headerless
// stand-in of the same size and a fresh UID when the packet is doomed: the
// first hop, a Doomer, would drop it unseen. It reports whether it did; if
// not, the caller builds and sends the real packet. The stand-in is queued
// and serialized exactly like the packet, so every other packet keeps its
// timing, and it ends at tx-done. The packet counts as doomed only while
// its arrival is exact: the access link is no bottleneck, has no delivery
// hook and crosses no shard, and the run has not turned the check off.
func (h *Host) SendIfDoomed(dst packet.Addr, size int) bool {
	l := h.link()
	if h.doomer == nil || l.bottleneck || l.OnDeliver != nil || h.net.shard != nil || h.net.simulateDoomed {
		return false
	}
	if !h.doomer.Doomed(dst, l, l.departure(size)+l.Delay) {
		return false
	}
	pkt := h.net.NewPacket(h.addr, dst, size, nil)
	pkt.Doomed = true
	l.Send(pkt)
	return true
}

// Scheduler exposes the simulation clock to agents running on the host —
// the host's shard scheduler when the experiment is sharded, the network's
// main scheduler otherwise. Agents must capture it after any migration
// (experiments migrate hosts before constructing agents).
func (h *Host) Scheduler() *sim.Scheduler {
	if h.shard != nil {
		return h.shard.sched
	}
	return h.net.sched
}

// Pool returns the packet pool agents on this host mint from: the host's
// shard pool when migrated, the network's otherwise. Pooled headers must
// come from the same pool as the packet that carries them.
func (h *Host) Pool() *packet.Pool {
	if h.shard != nil {
		return h.shard.pool
	}
	return h.net.pool
}

// NewPacket mints a packet originated by this host, drawing from the
// host's shard pool so agents on migrated hosts never touch the shared
// pool mid-run. Agents that run on hosts (protocol receivers, membership
// clients) must mint through this instead of Network.NewPacket.
func (h *Host) NewPacket(dst packet.Addr, size int, hdr packet.Header) *packet.Packet {
	return h.NewPacketFrom(h.addr, dst, size, hdr)
}

// NewPacketFrom mints a packet with an explicit (possibly spoofed) source
// address through the host's shard pool. Nothing in the data plane
// validates Src against the sending host, which is exactly the gap the
// feedback-forging adversary exploits; keeping the mint on the host keeps
// shard pool accounting honest even for forged traffic.
func (h *Host) NewPacketFrom(src, dst packet.Addr, size int, hdr packet.Header) *packet.Packet {
	if h.shard == nil {
		return h.net.NewPacket(src, dst, size, hdr)
	}
	p := h.shard.pool.Get(src, dst, size, hdr)
	p.UID = h.net.shardUID(h.shard.index)
	return p
}
