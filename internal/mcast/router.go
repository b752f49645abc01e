package mcast

import (
	"math"

	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Gatekeeper decides which local interfaces may receive a multicast group's
// packets, and consumes the control messages that drive those decisions.
// The plain-IGMP gatekeeper accepts everything (the insecure baseline);
// SIGMA's controller enforces key-based access. The interface is the
// embodiment of Requirement 3: the router below is identical for every
// congestion control protocol — all protocol awareness lives behind it.
type Gatekeeper interface {
	// Deliver reports whether a packet of group may be forwarded onto the
	// local interface of host.
	Deliver(group packet.Addr, host packet.Addr) bool
	// Entitled is Deliver's side-effect-free twin: whether a packet of
	// group would currently be forwarded onto the local interface of host,
	// without arming the grace windows and other per-delivery state Deliver
	// may touch. The invariant audit reads it mid-run to cross-check
	// entitlement against the fabric's graft state.
	Entitled(group, host packet.Addr) bool
	// Control handles a group-management message (IGMP or SIGMA) sent by a
	// local host to this router.
	Control(pkt *packet.Packet, from packet.Addr)
	// Intercept consumes a router-alert packet (SIGMA special packet).
	Intercept(pkt *packet.Packet)
}

// LocalTransformer is an optional Gatekeeper extension: rewrite a packet
// just before delivery onto a local interface, once per interface. SIGMA
// uses it for ECN component scrubbing.
//
// The packet arrives with one caller-owned reference. Implementations that
// need to alter it must go through Packet.Writable (copy-on-write) and
// return the resulting packet; the caller continues with — and owns — the
// returned reference.
type LocalTransformer interface {
	TransformLocal(pkt *packet.Packet) *packet.Packet
}

// Router is a multicast-capable router node. Core and edge routers run the
// same code; a router acts as an edge exactly where hosts are attached.
// Its multicast behaviour is protocol-independent: distribution-tree
// forwarding comes from the Fabric, and local-interface policy from the
// Gatekeeper.
type Router struct {
	id     netsim.NodeID
	name   string
	addr   packet.Addr
	net    *netsim.Network
	fabric *Fabric

	locals map[packet.Addr]*netsim.Host // local interfaces by host address
	// localOrder lists the local interfaces sorted by address. Delivery
	// iterates this, not the map: map order is random per process, and
	// although per-receiver state makes delivery order invisible in
	// results, it showed up as a ±1 allocs/op flutter in the benchmark
	// gate (consolidation-capable routers grew their feedback map on
	// different packets). The slice also caches each interface's delivery
	// link, saving a LinkBetween lookup per local delivery.
	localOrder []localIf
	localGen   uint64 // bumped by AttachLocal; invalidates cached indices
	gate       Gatekeeper

	// fwd memoizes, per group, the out-links to replicate on (stamped by
	// the fabric's tree version) and — when the gatekeeper declares its
	// Deliver side-effect free via DeliverVersion — the entitled local
	// interfaces (stamped by the gatekeeper's membership version). The
	// per-packet replication path then iterates two slices instead of
	// probing the tree's link counts and re-asking the gatekeeper per
	// interface. It is a per-group table indexed by groupIndex.
	fwd []*fwdEntry

	// inward caches graftBound's two least delays into the router; nil
	// until a source behind the router first asks.
	inward *inwardDelays

	// ForwardedMcast counts multicast packets replicated downstream.
	ForwardedMcast uint64
	// DeliveredLocal counts multicast packets delivered onto local interfaces.
	DeliveredLocal uint64

	// Hierarchical feedback consolidation (Fahmy-style, PAPERS.md): when
	// enabled the router absorbs upstream-bound ProtoFeedback unicasts,
	// merges them per (session, slot, destination), and forwards one
	// consolidated report after fbHold. Control traffic then scales with
	// tree fan-out instead of receiver population.
	consolidate bool
	fbHold      sim.Time
	fbPending   map[fbKey]*fbEntry
	fbFree      sim.Freelist[fbEntry] // flushed buckets, emptied, awaiting the next key
	// FeedbackAbsorbed counts feedback reports merged into pending state.
	FeedbackAbsorbed uint64
	// FeedbackForwarded counts consolidated reports sent upstream.
	FeedbackForwarded uint64
}

// inwardDelays are the two least delays of the links into a router from
// its neighbours, and the out-link whose reverse has the least, as of the
// network's delay version.
type inwardDelays struct {
	version      uint64
	best, second sim.Time
	bestOut      *netsim.Link
}

// localIf is one sorted-order local interface with its delivery link,
// resolved lazily because a host may attach before its link exists.
type localIf struct {
	addr packet.Addr
	host *netsim.Host
	link *netsim.Link
}

// fwdEntry is one group's cached forwarding decision.
type fwdEntry struct {
	fabricVer uint64
	gateVer   uint64
	localGen  uint64
	hasLocals bool // locals slice is valid (versioned gatekeeper)
	out       []*netsim.Link
	locals    []int32 // indices into localOrder entitled to the group
}

// deliverVersioner marks a gatekeeper whose Deliver is side-effect free
// and cacheable until the returned version changes.
type deliverVersioner interface{ DeliverVersion() uint64 }

// fbKey identifies one consolidation bucket.
type fbKey struct {
	session uint16
	slot    uint32
	dst     packet.Addr
}

// fbEntry accumulates the reports absorbed for one bucket. Entries recycle
// through the router's freelist, each with the closure that flushes it: a
// router consolidating a million-member session opens a bucket per slot per
// branch, and none of them should cost the heap anything once warm.
type fbEntry struct {
	key       fbKey
	flush     func() // flushes this entry; bound when the entry is first made
	count     uint64
	maxLevel  uint8
	congested bool
	reports   uint32
}

// NewRouter creates a router attached to net and fabric.
func NewRouter(net *netsim.Network, fabric *Fabric, name string) *Router {
	r := &Router{name: name, net: net, fabric: fabric, locals: make(map[packet.Addr]*netsim.Host)}
	net.Add(func(id netsim.NodeID) netsim.Node { r.id = id; return r })
	r.addr = net.AssignAddr(r)
	return r
}

// ID implements netsim.Node.
func (r *Router) ID() netsim.NodeID { return r.id }

// Name implements netsim.Node.
func (r *Router) Name() string { return r.name }

// Addr returns the router's control address; local receivers send their
// IGMP/SIGMA messages here.
func (r *Router) Addr() packet.Addr { return r.addr }

// Network returns the underlying network.
func (r *Router) Network() *netsim.Network { return r.net }

// AttachLocal declares host as a local interface of this (edge) router.
// The caller is responsible for having connected the host to the router.
func (r *Router) AttachLocal(h *netsim.Host) {
	addr := h.Addr()
	r.locals[addr] = h
	for i := range r.localOrder {
		if r.localOrder[i].addr == addr {
			r.localOrder[i] = localIf{addr: addr, host: h}
			return
		}
	}
	at := len(r.localOrder)
	for at > 0 && r.localOrder[at-1].addr > addr {
		at--
	}
	r.localOrder = append(r.localOrder, localIf{})
	copy(r.localOrder[at+1:], r.localOrder[at:])
	r.localOrder[at] = localIf{addr: addr, host: h}
	r.localGen++
}

// fwdOf returns the group's forward cache, rebuilding the stale halves.
func (r *Router) fwdOf(group packet.Addr) *fwdEntry {
	i := groupIndex(group)
	if i >= len(r.fwd) {
		r.fwd = extend(r.fwd, i)
	}
	e := r.fwd[i]
	if e == nil {
		e = &fwdEntry{fabricVer: ^uint64(0), gateVer: ^uint64(0)}
		r.fwd[i] = e
	}
	if fv := r.fabric.Version(); e.fabricVer != fv {
		e.fabricVer = fv
		e.out = e.out[:0]
		if fwd := r.fabric.ForwardSet(group); len(fwd) > 0 {
			for _, out := range r.net.OutLinks(r.id) {
				if fwd[out] > 0 {
					e.out = append(e.out, out)
				}
			}
		}
	}
	if dv, ok := r.gate.(deliverVersioner); ok {
		if gv := dv.DeliverVersion(); !e.hasLocals || e.gateVer != gv || e.localGen != r.localGen {
			e.hasLocals = true
			e.gateVer = gv
			e.localGen = r.localGen
			e.locals = e.locals[:0]
			for i := range r.localOrder {
				if r.gate.Deliver(group, r.localOrder[i].addr) {
					e.locals = append(e.locals, int32(i))
				}
			}
		}
	} else {
		e.hasLocals = false
	}
	return e
}

// Locals returns the attached local hosts keyed by address.
func (r *Router) Locals() map[packet.Addr]*netsim.Host { return r.locals }

// SetGatekeeper installs the local-interface policy. Installing the IGMP
// gatekeeper models a legacy router; installing SIGMA's controller makes
// this an access-controlled edge (§3.2.3 incremental deployment: each
// router chooses independently).
func (r *Router) SetGatekeeper(g Gatekeeper) { r.gate = g }

// Gatekeeper returns the installed policy.
func (r *Router) Gatekeeper() Gatekeeper { return r.gate }

// EnableConsolidation turns on hierarchical feedback consolidation at this
// router: upstream-bound feedback reports are held for hold, merged per
// (session, slot, destination), and re-emitted as a single consolidated
// report. Enabling on every router of a tree makes feedback volume at the
// root proportional to the root's fan-out, not the leaf population.
func (r *Router) EnableConsolidation(hold sim.Time) {
	if hold <= 0 {
		hold = sim.Millisecond
	}
	r.consolidate = true
	r.fbHold = hold
	if r.fbPending == nil {
		r.fbPending = make(map[fbKey]*fbEntry)
	}
}

// absorbFeedback merges one report into the pending bucket, arming the
// bucket's flush on first contact. Flushes are armed in packet-arrival
// order, so seeded runs replay exactly.
func (r *Router) absorbFeedback(fb *packet.FeedbackHeader, dst packet.Addr) {
	k := fbKey{session: fb.Session, slot: fb.Slot, dst: dst}
	e := r.fbPending[k]
	if e == nil {
		e = r.fbFree.Get()
		if e.flush == nil {
			e.flush = func() { r.flushFeedback(e) }
		}
		e.key = k
		r.fbPending[k] = e
		sched := r.net.Scheduler()
		sched.Schedule(sched.Now()+r.fbHold, e.flush)
	}
	e.count += fb.Count
	if fb.MaxLevel > e.maxLevel {
		e.maxLevel = fb.MaxLevel
	}
	e.congested = e.congested || fb.Congested
	e.reports += fb.Reports
	r.FeedbackAbsorbed++
}

// flushFeedback emits one consolidated report for the bucket and parks the
// bucket, emptied, for the next key.
func (r *Router) flushFeedback(e *fbEntry) {
	k := e.key
	delete(r.fbPending, k)
	h := r.net.Pool().FeedbackHeader()
	h.Session, h.Slot, h.Count = k.session, k.slot, e.count
	h.MaxLevel, h.Congested, h.Reports = e.maxLevel, e.congested, e.reports
	*e = fbEntry{flush: e.flush}
	r.fbFree.Put(e)
	out := r.net.NewPacket(r.addr, k.dst, 0, h)
	r.FeedbackForwarded++
	if next := r.net.NextHopLink(r.id, k.dst); next != nil {
		next.Send(out)
	} else {
		out.Release()
	}
}

// Doomed implements netsim.Doomer for a source host attached to this
// router: a packet of group arriving over in at arrive would be replicated
// nowhere and delivered to no one. That holds when the router has no local
// interface, the group's tree, rooted at in's source, carries no branch
// and grows none, and the packet lands strictly before a graft requested
// now could activate a branch here (graftBound).
func (r *Router) Doomed(group packet.Addr, in *netsim.Link, arrive sim.Time) bool {
	return len(r.locals) == 0 && r.fabric.Dormant(group, in.From().ID()) &&
		arrive-r.net.Scheduler().Now() < r.graftBound(in)
}

// graftBound is the least time a graft requested now takes to activate a
// branch at this router for a group with no branch, sourced behind in:
// the graft climbs to the source (Fabric.graftDelay), so it crosses one of
// the router's other links inward and then in's reverse. The two least
// inward delays are cached until a delay changes, so each call is O(1).
func (r *Router) graftBound(in *netsim.Link) sim.Time {
	if r.inward == nil {
		r.inward = &inwardDelays{version: ^uint64(0)}
	}
	c := r.inward
	if v := r.net.DelayVersion(); c.version != v {
		*c = inwardDelays{version: v, best: math.MaxInt64, second: math.MaxInt64}
		for _, out := range r.net.OutLinks(r.id) {
			switch d := out.Reverse().Delay; {
			case d < c.best:
				c.second, c.best, c.bestOut = c.best, d, out
			case d < c.second:
				c.second = d
			}
		}
	}
	back := in.Reverse()
	other := c.best
	if back == c.bestOut {
		other = c.second
	}
	if other == math.MaxInt64 {
		return other // no other neighbour: no graft can come
	}
	return back.Delay + other
}

// Graft asks the fabric to extend the group's tree to this router. The
// gatekeeper calls this when a local interface becomes entitled to a group.
func (r *Router) Graft(group packet.Addr) { r.fabric.Graft(group, r.id) }

// Prune asks the fabric to cut this router off the group's tree.
func (r *Router) Prune(group packet.Addr) { r.fabric.Prune(group, r.id) }

// SendLocal transmits a packet directly onto the local interface of the
// addressed host (used for SIGMA acknowledgments). It consumes the caller's
// reference even when no local link exists.
func (r *Router) SendLocal(pkt *packet.Packet) {
	if id, ok := r.net.HostByAddr(pkt.Dst); ok {
		if l := r.net.LinkBetween(r.id, id); l != nil {
			l.Send(pkt)
			return
		}
	}
	pkt.Release()
}

// Receive implements netsim.Node. Routing logic:
//   - unicast to the router itself → control message for the gatekeeper;
//   - unicast elsewhere → forward along the shortest path;
//   - multicast → replicate along the group tree, intercept router-alert
//     packets at the gatekeeper, and deliver onto entitled local interfaces.
//
// The router owns the delivery reference it receives. Multicast fan-out
// shares the envelope: every downstream branch and local delivery takes its
// own reference with Retain instead of cloning, and the incoming reference
// is released when replication is done.
func (r *Router) Receive(pkt *packet.Packet, from *netsim.Link) {
	if !pkt.Dst.IsMulticast() {
		if pkt.Dst == r.addr {
			if r.gate != nil {
				r.gate.Control(pkt, pkt.Src)
			}
			pkt.Release()
			return
		}
		if r.consolidate && pkt.Proto == packet.ProtoFeedback {
			if fb, ok := pkt.Header.(*packet.FeedbackHeader); ok {
				r.absorbFeedback(fb, pkt.Dst)
				pkt.Release()
				return
			}
		}
		if next := r.net.NextHopLink(r.id, pkt.Dst); next != nil {
			next.Send(pkt)
		} else {
			pkt.Release()
		}
		return
	}

	group := pkt.Dst

	// Replicate downstream along the distribution tree, iterating the
	// cached forward list — identical order to probing OutLinks against
	// the fabric's forward set, which is how the cache is built.
	var fromRev netsim.NodeID = -1
	if from != nil {
		fromRev = from.From().ID()
	}
	c := r.fwdOf(group)
	for _, out := range c.out {
		if out.To().ID() == fromRev {
			continue // never reflect back upstream
		}
		out.Send(pkt.Retain())
		r.ForwardedMcast++
	}

	// Router-alert packets are intercepted by edge gatekeepers and never
	// delivered onto local interfaces (§3.2.1).
	if pkt.Alert {
		if r.gate != nil && len(r.locals) > 0 {
			r.gate.Intercept(pkt)
		}
		pkt.Release()
		return
	}

	// Local delivery, subject to the gatekeeper, in sorted address order.
	transformer, _ := r.gate.(LocalTransformer)
	if c.hasLocals {
		// Versioned gatekeeper: the entitled-interface list is cached in
		// the same sorted order the fallback loop walks.
		for _, idx := range c.locals {
			r.deliverLocal(pkt, &r.localOrder[idx], transformer)
		}
		pkt.Release()
		return
	}
	for i := range r.localOrder {
		li := &r.localOrder[i]
		if r.gate == nil || !r.gate.Deliver(group, li.addr) {
			continue
		}
		r.deliverLocal(pkt, li, transformer)
	}
	pkt.Release()
}

// deliverLocal pushes one retained reference onto a local interface,
// applying the gatekeeper's transform when present.
func (r *Router) deliverLocal(pkt *packet.Packet, li *localIf, transformer LocalTransformer) {
	if li.link == nil {
		li.link = r.net.LinkBetween(r.id, li.host.ID())
		if li.link == nil {
			return
		}
	}
	out := pkt.Retain()
	if transformer != nil {
		out = transformer.TransformLocal(out)
	}
	li.link.Send(out)
	r.DeliveredLocal++
}
