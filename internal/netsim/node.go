// Package netsim models the network itself: nodes joined by unidirectional
// rate/delay links with drop-tail queues, unicast shortest-path routing, and
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

// Handler consumes packets delivered to a host.
type Handler func(pkt *packet.Packet)

// Host is an end system. Protocol agents attach per-protocol handlers; a
// host never forwards traffic.
type Host struct {
	id       NodeID
	name     string
	addr     packet.Addr
	net      *Network
	access   *Link // cached single outgoing link (hosts are single-homed)
	handlers [16]Handler
	anyProto Handler

	// Sharded execution: a migrated host runs its agents on its shard's
	// scheduler and mints from its shard's pool. Zero values mean the host
	// lives on the network's main scheduler/pool (shard 0).
	sched *sim.Scheduler
	pool  *packet.Pool
	shard int

	// Received counts packets delivered to this host, by protocol.
	Received [16]uint64
	// RecvBytes counts bytes delivered to this host.
	RecvBytes uint64
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
func (h *Host) Send(pkt *packet.Packet) {
	link := h.access
	if link == nil {
		link = h.net.accessLink(h.id)
		if link == nil {
			panic(fmt.Sprintf("netsim: host %s has no access link", h.name))
		}
		h.access = link // links are never removed; the first out-link is stable
	}
	link.Send(pkt)
}

// Scheduler exposes the simulation clock to agents running on the host —
// the host's shard scheduler when the experiment is sharded, the network's
// main scheduler otherwise. Agents must capture it after any migration
// (experiments migrate hosts before constructing agents).
func (h *Host) Scheduler() *sim.Scheduler {
	if h.sched != nil {
		return h.sched
	}
	return h.net.sched
}

// Pool returns the packet pool agents on this host mint from: the host's
// shard pool when migrated, the network's otherwise. Pooled headers must
// come from the same pool as the packet that carries them.
func (h *Host) Pool() *packet.Pool {
	if h.pool != nil {
		return h.pool
	}
	return h.net.pool
}

// Shard reports which shard the host runs on (0 unless migrated).
func (h *Host) Shard() int { return h.shard }

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
	if h.pool == nil {
		return h.net.NewPacket(src, dst, size, hdr)
	}
	p := h.pool.Get(src, dst, size, hdr)
	p.UID = h.net.shardUID(h.shard)
	return p
}
