package mcast

import (
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
)

// IGMP is the unrestricted gatekeeper: any host may join any group it can
// name, exactly the RFC 2236 behaviour the paper identifies as the attack
// surface (§2.2: "IGMP does not restrict the ability of receivers to
// subscribe to multicast groups"). It is both the baseline for the FLID-DL
// experiments and the legacy-router behaviour in the incremental-deployment
// story (§3.2.3).
type IGMP struct {
	router  *Router
	members map[packet.Addr]map[packet.Addr]bool // group → member host addrs
	version uint64                               // membership-mutation counter

	// Joins and Leaves count processed messages.
	Joins, Leaves uint64
}

// NewIGMP installs a plain-IGMP gatekeeper on r and returns it.
func NewIGMP(r *Router) *IGMP {
	g := &IGMP{router: r, members: make(map[packet.Addr]map[packet.Addr]bool)}
	r.SetGatekeeper(g)
	return g
}

// Deliver implements Gatekeeper: membership is sufficient.
func (g *IGMP) Deliver(group, host packet.Addr) bool {
	return g.members[group][host]
}

// Entitled implements Gatekeeper: for plain IGMP the read-only view
// coincides with Deliver.
func (g *IGMP) Entitled(group, host packet.Addr) bool {
	return g.members[group][host]
}

// DeliverVersion reports the membership-mutation counter. Its presence
// declares Deliver side-effect free, letting the router cache per-group
// delivery lists until membership changes (see Router.fwdOf).
func (g *IGMP) DeliverVersion() uint64 { return g.version }

// Members reports the current member count of a group (test observability).
func (g *IGMP) Members(group packet.Addr) int { return len(g.members[group]) }

// Control implements Gatekeeper: process join/leave messages from local
// hosts. Joins from hosts that are not local interfaces are ignored.
func (g *IGMP) Control(pkt *packet.Packet, from packet.Addr) {
	hdr, ok := pkt.Header.(*packet.IGMPHeader)
	if !ok {
		return // SIGMA messages to a legacy router are ignored
	}
	if _, local := g.router.Locals()[from]; !local {
		return
	}
	switch hdr.Op {
	case packet.IGMPJoin:
		g.Joins++
		m := g.members[hdr.Group]
		if m == nil {
			m = make(map[packet.Addr]bool)
			g.members[hdr.Group] = m
		}
		if !m[from] {
			m[from] = true
			g.version++
			if len(m) == 1 {
				g.router.Graft(hdr.Group)
			}
		}
	case packet.IGMPLeave:
		g.Leaves++
		m := g.members[hdr.Group]
		if m != nil && m[from] {
			delete(m, from)
			g.version++
			if len(m) == 0 {
				g.router.Prune(hdr.Group)
			}
		}
	}
}

// Intercept implements Gatekeeper: legacy routers ignore SIGMA special
// packets.
func (g *IGMP) Intercept(pkt *packet.Packet) {}

// Client is the host-side group-management stub speaking plain IGMP to the
// local edge router. Both well-behaved FLID-DL receivers and the inflated-
// subscription attacker use it — that symmetry is the vulnerability.
type Client struct {
	host   *netsim.Host
	router packet.Addr
}

// NewClient returns an IGMP client for host talking to the edge router at
// routerAddr.
func NewClient(host *netsim.Host, routerAddr packet.Addr) *Client {
	return &Client{host: host, router: routerAddr}
}

// Join subscribes the host to group.
func (c *Client) Join(group packet.Addr) {
	c.send(packet.IGMPJoin, group)
}

// Leave unsubscribes the host from group.
func (c *Client) Leave(group packet.Addr) {
	c.send(packet.IGMPLeave, group)
}

func (c *Client) send(op packet.IGMPOp, group packet.Addr) {
	hdr := c.host.Pool().IGMPHeader()
	hdr.Op, hdr.Group = op, group
	c.host.Send(c.host.NewPacket(c.router, 0, hdr))
}
