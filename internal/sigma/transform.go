package sigma

import (
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// EnableECNScrub makes the controller alter the component field of every
// CE-marked packet it delivers onto a local interface (§3.1.2, "Congestion
// notification"): receivers of marked packets lose the ability to
// reconstruct their level's key, turning the mark into a key-denying
// congestion signal without dropping data.
func (c *Controller) EnableECNScrub(src *keys.Source) {
	c.scrubSrc = src
}

// TransformLocal implements mcast.LocalTransformer: apply ECN scrubbing to
// data packets bound for one local interface. Altering goes through
// Writable, so the shared multicast envelope is copied-on-write only on the
// rare mutating delivery.
func (c *Controller) TransformLocal(pkt *packet.Packet) *packet.Packet {
	if c.scrubSrc != nil && pkt.ECN {
		pkt = pkt.Writable()
		pkt.Header = delta.ScrubComponent(pkt.Header, c.scrubSrc.Nonce())
	}
	return pkt
}
