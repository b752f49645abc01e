// Package mcast provides the IP-multicast substrate: group distribution
// trees with realistic per-hop graft latency, packet replication at routers,
// edge-router local-interface management, and the plain-IGMP membership
// behaviour that SIGMA replaces.
//
// Routing is source-rooted shortest-path (the role DVMRP/PIM plays under
// NS-2 in the paper): when an edge router acquires its first interested
// local interface for a group, a graft propagates hop-by-hop toward the
// session source and activates the branch; when the last interface goes
// away the branch is pruned at once. The zero prune latency models FLID-DL's
// dynamic layering — the entire point of DL is that receivers reduce their
// rate without waiting on IGMP leave latency (see DESIGN.md, substitution
// table).
package mcast

import (
	"fmt"
	"slices"

	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Fabric tracks the distribution tree of every multicast group: which
// directed links currently carry the group, reference-counted by the edge
// routers whose graft paths use them.
type Fabric struct {
	net *netsim.Network

	grafts map[graftKey]*graftState
	// trees holds each group's tree in the group's row (groupIndex).
	trees []treeState

	// version counts tree mutations (graft applications and prune
	// deactivations). Routers stamp their per-group forward caches with it
	// and rebuild on mismatch, so the per-packet replication path probes a
	// cached slice instead of the tree's link counts.
	version uint64

	// Grafts counts graft operations (test observability).
	Grafts uint64
	// Prunes counts prune operations.
	Prunes uint64
}

// treeState is one group's tree: its link counts, and what the
// doomed-packet check needs of it, kept in step with graft and prune so it
// is read in O(1).
type treeState struct {
	refs     map[*netsim.Link]int // link → edges whose applied route uses it
	srcPlus1 int32                // the source's NodeID plus one; zero when none is set
	grafting int32                // grafts whose timer is armed
	carried  int32                // branches whose route's links count the group
}

// groupIndex is a group's row in the per-group tables, the fabric's trees
// and each router's forward cache: its offset above MulticastBase.
// Sessions allocate contiguous group blocks just above MulticastBase, so
// the tables are dense slices with small gaps.
func groupIndex(group packet.Addr) int { return int(group - packet.MulticastBase) }

// extend returns table lengthened to hold row i. A session adds its groups
// one at a time, so a new allocation leaves room for the rest of the block
// and at least doubles: N groups cost O(log N) copies.
func extend[T any](table []T, i int) []T {
	if i >= cap(table) {
		table = slices.Grow(table, max(i+16, 2*cap(table))-len(table))
	}
	return table[:i+1]
}

// tree returns the group's row, or nil for a group whose row lies past
// the table: no source was ever set for it, so it has no tree.
func (f *Fabric) tree(group packet.Addr) *treeState {
	if i := groupIndex(group); i < len(f.trees) {
		return &f.trees[i]
	}
	return nil
}

// Dormant reports whether src is group's registered source and no branch
// of its tree is carried or being grafted: then no link carries the group
// and none will before a graft requested from now on reaches the tree.
func (f *Fabric) Dormant(group packet.Addr, src netsim.NodeID) bool {
	t := f.tree(group)
	return t != nil && t.srcPlus1 == int32(src)+1 && t.grafting == 0 && t.carried == 0
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
	return &Fabric{net: net, grafts: make(map[graftKey]*graftState)}
}

// SetSource registers the node that originates traffic for group. Sessions
// call this once per group before any graft.
func (f *Fabric) SetSource(group packet.Addr, src netsim.NodeID) {
	if !group.IsMulticast() {
		panic(fmt.Sprintf("mcast: %v is not a multicast group", group))
	}
	i := groupIndex(group)
	if i >= len(f.trees) {
		f.trees = extend(f.trees, i)
	}
	f.trees[i].srcPlus1 = int32(src) + 1
}

// Source returns the registered source of a group.
func (f *Fabric) Source(group packet.Addr) (netsim.NodeID, bool) {
	if t := f.tree(group); t != nil && t.srcPlus1 != 0 {
		return netsim.NodeID(t.srcPlus1 - 1), true
	}
	return 0, false
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
	t := f.tree(group)
	if t == nil || t.srcPlus1 == 0 {
		panic(fmt.Sprintf("mcast: graft for group %v with no source", group))
	}
	st.joined = true
	f.Grafts++

	if st.route == nil {
		st.route = f.downstreamPath(netsim.NodeID(t.srcPlus1-1), edge)
	}
	if st.route == nil {
		// No route; stay joined so a later prune is a no-op, but never apply.
		return
	}
	st.timer.Reset(f.graftDelay(t.refs, st.route))
	t.grafting++
}

// apply activates the branch once the graft has reached the tree.
func (st *graftState) apply() {
	t := st.f.tree(st.group)
	t.grafting--
	if !st.joined {
		return // pruned while the graft was in flight
	}
	st.applied = true
	t.carried++
	if t.refs == nil {
		t.refs = make(map[*netsim.Link]int)
	}
	for _, l := range st.route {
		t.refs[l]++
	}
	st.f.version++
}

// Prune stops group traffic flowing to edge: an applied branch withdraws
// its count from its route's links at once, and a graft still in flight
// is cancelled.
func (f *Fabric) Prune(group packet.Addr, edge netsim.NodeID) {
	st := f.grafts[graftKey{group, edge}]
	if st == nil || !st.joined {
		return
	}
	st.joined = false
	f.Prunes++
	t := f.tree(group)
	if !st.applied {
		if st.timer.Active() {
			t.grafting--
		}
		st.timer.Stop()
		return
	}
	st.applied = false
	for _, l := range st.route {
		if t.refs[l] > 0 {
			t.refs[l]--
		}
	}
	t.carried--
	f.version++
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
	if t := f.tree(group); t != nil {
		return t.refs
	}
	return nil
}

// Version reports the current tree-mutation counter; any change in any
// group's forward set changes it.
func (f *Fabric) Version() uint64 { return f.version }

// ActiveLinks reports how many links currently carry the group, an
// observability hook for tests.
func (f *Fabric) ActiveLinks(group packet.Addr) int {
	n := 0
	// order-insensitive: a count
	for _, c := range f.ForwardSet(group) {
		if c > 0 {
			n++
		}
	}
	return n
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
// nearest router that is already on the group's tree, whose link counts
// are r, walking the downstream path in reverse and summing the
// reverse-direction link delays.
func (f *Fabric) graftDelay(r map[*netsim.Link]int, downstream []*netsim.Link) sim.Time {
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
