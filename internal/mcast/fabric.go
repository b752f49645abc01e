// Package mcast provides the IP-multicast substrate: group distribution
// trees with realistic per-hop graft latency, packet replication at routers,
// edge-router local-interface management, and the plain-IGMP membership
// behaviour that SIGMA replaces.
//
// Routing is source-rooted shortest-path (the role DVMRP/PIM plays under
// NS-2 in the paper): when an edge router acquires its first interested
// local interface for a group, a graft propagates hop-by-hop toward the
// session source and activates the branch; when the last interface goes
// away the branch is pruned. Prune latency is configurable and defaults to
// zero, which models FLID-DL's dynamic layering — the entire point of DL is
// that receivers reduce their rate without waiting on IGMP leave latency
// (see DESIGN.md, substitution table).
package mcast

import (
	"fmt"

	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Fabric tracks the distribution tree of every multicast group: which
// directed links currently carry the group, reference-counted by the edge
// routers whose graft paths use them.
type Fabric struct {
	net *netsim.Network

	// PruneDelayPerPath, when positive, delays branch deactivation after a
	// prune (models IGMP leave latency; zero models dynamic layering).
	PruneDelayPerPath sim.Time

	sources map[packet.Addr]netsim.NodeID        // group → source node
	refs    map[packet.Addr]map[*netsim.Link]int // group → link → edge count
	grafts  map[graftKey]*graftState

	// version counts tree mutations (graft applications and prune
	// deactivations). Routers stamp their per-group forward caches with it
	// and rebuild on mismatch, so the per-packet replication path probes a
	// cached slice instead of the refs maps.
	version uint64

	// Grafts counts graft operations (test observability).
	Grafts uint64
	// Prunes counts prune operations.
	Prunes uint64
}

type graftKey struct {
	group packet.Addr
	edge  netsim.NodeID
}

// graftState is one edge router's branch of one group's tree. An edge under
// a forged teardown or an oscillating receiver grafts and prunes every
// slot, so the state is kept and reused: the route is resolved once (unicast
// routes are fixed once computed) and the propagation timer is re-armed in
// place.
type graftState struct {
	f       *Fabric
	group   packet.Addr
	joined  bool
	applied bool           // route's links currently count this edge
	timer   sim.Timer      // graft propagation toward the tree
	route   []*netsim.Link // source→edge links; nil until the first graft finds one
}

// NewFabric creates a fabric over net.
func NewFabric(net *netsim.Network) *Fabric {
	return &Fabric{
		net:     net,
		sources: make(map[packet.Addr]netsim.NodeID),
		refs:    make(map[packet.Addr]map[*netsim.Link]int),
		grafts:  make(map[graftKey]*graftState),
	}
}

// SetSource registers the node that originates traffic for group. Sessions
// call this once per group before any graft.
func (f *Fabric) SetSource(group packet.Addr, src netsim.NodeID) {
	if !group.IsMulticast() {
		panic(fmt.Sprintf("mcast: %v is not a multicast group", group))
	}
	f.sources[group] = src
}

// Source returns the registered source of a group.
func (f *Fabric) Source(group packet.Addr) (netsim.NodeID, bool) {
	id, ok := f.sources[group]
	return id, ok
}

// Graft requests that group traffic start flowing to edge router edge. The
// branch activates after the graft message has propagated hop-by-hop from
// the edge to the nearest on-tree router (or the source). Idempotent while
// joined.
func (f *Fabric) Graft(group packet.Addr, edge netsim.NodeID) {
	key := graftKey{group, edge}
	st := f.grafts[key]
	if st == nil {
		st = &graftState{f: f, group: group}
		st.timer = f.net.Scheduler().MakeTimer(st.apply)
		f.grafts[key] = st
	}
	if st.joined {
		return
	}
	src, ok := f.sources[group]
	if !ok {
		panic(fmt.Sprintf("mcast: graft for group %v with no source", group))
	}
	st.joined = true
	f.Grafts++

	if st.route == nil {
		st.route = f.downstreamPath(src, edge)
	}
	if st.route == nil {
		// No route; stay joined so a later prune is a no-op, but never apply.
		return
	}
	st.timer.Reset(f.graftDelay(group, st.route))
}

// apply activates the branch once the graft has reached the tree.
func (st *graftState) apply() {
	if !st.joined {
		return // pruned while the graft was in flight
	}
	st.applied = true
	r := st.f.groupRefs(st.group)
	for _, l := range st.route {
		r[l]++
	}
	st.f.version++
}

// Prune requests that group traffic stop flowing to edge. With
// PruneDelayPerPath zero the branch deactivates immediately.
func (f *Fabric) Prune(group packet.Addr, edge netsim.NodeID) {
	st := f.grafts[graftKey{group, edge}]
	if st == nil || !st.joined {
		return
	}
	st.joined = false
	f.Prunes++
	if !st.applied {
		st.timer.Stop()
		return
	}
	st.applied = false
	if f.PruneDelayPerPath > 0 {
		f.net.Scheduler().After(f.PruneDelayPerPath, st.deactivate)
	} else {
		st.deactivate()
	}
}

// deactivate withdraws this edge's count from its route's links.
func (st *graftState) deactivate() {
	r := st.f.groupRefs(st.group)
	for _, l := range st.route {
		if r[l] > 0 {
			r[l]--
		}
	}
	st.f.version++
}

// EntitlementReader is the side-effect-free twin of Gatekeeper.Deliver,
// implemented by gatekeepers whose forwarding decision can be read without
// perturbing it (Deliver may arm grace windows and other per-delivery
// state). The invariant-audit layer uses it to cross-check gatekeeper
// entitlement against the fabric's graft state mid-run: an entitled local
// interface implies a live graft at its edge router.
type EntitlementReader interface {
	// Entitled reports whether a packet of group would currently be
	// forwarded onto the local interface of host, with no side effects.
	Entitled(group, host packet.Addr) bool
}

// Joined reports whether edge currently has a (possibly still propagating)
// graft for group.
func (f *Fabric) Joined(group packet.Addr, edge netsim.NodeID) bool {
	st := f.grafts[graftKey{group, edge}]
	return st != nil && st.joined
}

// ForwardSet returns the group's live link reference counts (nil when the
// group has no active branches). Routers resolve it once per packet and
// probe their out-links against it, instead of re-hashing the group
// address for every link.
func (f *Fabric) ForwardSet(group packet.Addr) map[*netsim.Link]int {
	return f.refs[group]
}

// Version reports the current tree-mutation counter; any change in any
// group's forward set changes it.
func (f *Fabric) Version() uint64 { return f.version }

// ActiveLinks reports how many links currently carry the group, an
// observability hook for tests.
func (f *Fabric) ActiveLinks(group packet.Addr) int {
	n := 0
	for _, c := range f.refs[group] {
		if c > 0 {
			n++
		}
	}
	return n
}

func (f *Fabric) groupRefs(group packet.Addr) map[*netsim.Link]int {
	r := f.refs[group]
	if r == nil {
		r = make(map[*netsim.Link]int)
		f.refs[group] = r
	}
	return r
}

// downstreamPath lists the directed links from src to edge along the
// shortest path.
func (f *Fabric) downstreamPath(src, edge netsim.NodeID) []*netsim.Link {
	nodes := f.net.Path(src, edge)
	if nodes == nil {
		return nil
	}
	links := make([]*netsim.Link, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		l := f.net.LinkBetween(nodes[i], nodes[i+1])
		if l == nil {
			return nil
		}
		links = append(links, l)
	}
	return links
}

// graftDelay is the time for a graft originating at the edge to reach the
// nearest router that is already on the group's tree, walking the
// downstream path in reverse and summing the reverse-direction link delays.
func (f *Fabric) graftDelay(group packet.Addr, downstream []*netsim.Link) sim.Time {
	r := f.refs[group]
	var delay sim.Time
	// Walk from the edge end upward. Stop as soon as the node at the head
	// of the remaining path is on-tree: a node is on-tree when some link
	// into it carries the group (or it is the source, i.e. the path start).
	for i := len(downstream) - 1; i >= 0; i-- {
		l := downstream[i]
		// The graft travels the reverse direction of l.
		rev := f.net.LinkBetween(l.To().ID(), l.From().ID())
		if rev != nil {
			delay += rev.Delay
		} else {
			delay += l.Delay
		}
		if i == 0 {
			break // reached the source
		}
		// Is the node feeding l already on the tree?
		feeder := downstream[i-1]
		if r[feeder] > 0 {
			break
		}
	}
	return delay
}
