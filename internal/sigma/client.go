package sigma

import (
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Client is the receiver-side SIGMA stub: it emits the Figure 6 messages to
// the local edge router and retransmits subscription messages until they
// are acknowledged (§3.2.2, "reliable subscription").
type Client struct {
	host   *netsim.Host
	router packet.Addr
	sched  *sim.Scheduler

	// RTO is the acknowledgment timeout before a subscription message is
	// retransmitted.
	RTO sim.Time
	// MaxTries bounds transmissions per subscription message.
	MaxTries int

	nextID uint32
	// pending holds the unacknowledged subscriptions, a handful at most
	// (one per slot, each gone within MaxTries·RTO); idle holds the entries
	// they came from and return to, timers bound.
	pending []*pendingSub
	idle    sim.Freelist[pendingSub]

	// Retransmits counts subscription retransmissions.
	Retransmits uint64
	// AcksReceived counts acknowledgments.
	AcksReceived uint64

	// Tap, when set, observes every Subscribe before it is sent. A
	// colluding attacker pool installs it on its members' legitimate
	// clients to learn the real announced keys they submit; the engine's
	// own guess traffic mutes itself around its Subscribe calls so junk
	// guesses are never mistaken for decoded keys. The pairs are the
	// caller's buffer: a tap copies what it keeps.
	Tap func(slot uint32, pairs []packet.AddrKey)
}

// pendingSub is one subscription awaiting its ack: the retransmission
// buffer's reference on the message and the timer that re-sends it.
type pendingSub struct {
	c     *Client
	id    uint32
	pkt   *packet.Packet
	timer sim.Timer
	tries int
}

// NewClient builds a SIGMA client on host talking to the edge router at
// routerAddr, and registers itself for SIGMA acknowledgments.
func NewClient(host *netsim.Host, routerAddr packet.Addr) *Client {
	c := &Client{
		host:     host,
		router:   routerAddr,
		sched:    host.Scheduler(),
		RTO:      60 * sim.Millisecond,
		MaxTries: 5,
	}
	host.Handle(packet.ProtoSigma, c.onSigma)
	return c
}

func (c *Client) onSigma(pkt *packet.Packet) {
	hdr, ok := pkt.Header.(*packet.SigmaHeader)
	if !ok || hdr.Kind != packet.SigmaAck {
		return
	}
	for _, p := range c.pending {
		if p.id == hdr.AckID {
			p.timer.Stop()
			c.retire(p)
			c.AcksReceived++
			return
		}
	}
}

// retire drops p's reference on its message and returns p to the idle list.
func (c *Client) retire(p *pendingSub) {
	for i, q := range c.pending {
		if q == p {
			last := len(c.pending) - 1
			c.pending[i] = c.pending[last]
			c.pending[last] = nil
			c.pending = c.pending[:last]
			break
		}
	}
	p.pkt.Release()
	p.pkt = nil
	c.idle.Put(p)
}

// message mints a pooled SIGMA header of the given kind, to be filled in
// and passed to send.
func (c *Client) message(kind packet.SigmaKind) *packet.SigmaHeader {
	hdr := c.host.Pool().SigmaHeader()
	hdr.Kind = kind
	return hdr
}

// send wraps hdr in a pooled packet and transmits it, fire-and-forget.
func (c *Client) send(hdr *packet.SigmaHeader) {
	c.host.Send(c.host.NewPacket(c.router, 0, hdr))
}

// SessionJoin asks for keyless admission into the session via its minimal
// group (Figure 6a).
func (c *Client) SessionJoin(minimal packet.Addr) {
	hdr := c.message(packet.SigmaSessionJoin)
	hdr.Minimal = minimal
	c.send(hdr)
}

// Subscribe submits address-key pairs for a time slot (Figure 6b) and
// retransmits until acknowledged. It returns the message's ack identifier.
// The pairs are copied into the pooled message, so the caller's buffer is
// free on return. The retransmission buffer holds its own reference on the
// message (taken before the send, so a drop-tail drop cannot recycle it)
// and the same envelope is re-sent with Retain instead of cloned per try.
func (c *Client) Subscribe(slot uint32, pairs []packet.AddrKey) uint32 {
	if c.Tap != nil {
		c.Tap(slot, pairs)
	}
	c.nextID++
	hdr := c.message(packet.SigmaSubscribe)
	hdr.Slot, hdr.AckID = slot, c.nextID
	hdr.Pairs = append(hdr.Pairs, pairs...)
	pkt := c.host.NewPacket(c.router, 0, hdr)

	p := c.idle.Get()
	if p.c == nil { // fresh: bind it to this client, once
		p.c = c
		p.timer = c.sched.MakeTimer(p.retransmit)
	}
	p.id, p.pkt, p.tries = c.nextID, pkt.Retain(), 1
	c.host.Send(pkt)
	c.pending = append(c.pending, p)
	p.timer.Reset(c.RTO)
	return p.id
}

// retransmit re-sends an unacknowledged subscription message, reusing the
// pending entry's timer and packet for the whole retry ladder.
func (p *pendingSub) retransmit() {
	c := p.c
	if p.tries >= c.MaxTries {
		c.retire(p)
		return
	}
	p.tries++
	c.Retransmits++
	c.host.Send(p.pkt.Retain())
	p.timer.Reset(c.RTO)
}

// Unsubscribe abandons groups immediately (Figure 6c); it is fire-and-
// forget, since dynamic keys expire access anyway. The addresses are
// copied into the pooled message.
func (c *Client) Unsubscribe(addrs []packet.Addr) {
	hdr := c.message(packet.SigmaUnsubscribe)
	hdr.Addrs = append(hdr.Addrs, addrs...)
	c.send(hdr)
}

// Pending reports in-flight unacknowledged subscription messages.
func (c *Client) Pending() int { return len(c.pending) }
