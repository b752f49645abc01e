package packet

import "deltasigma/internal/sim"

// Pool recycles Packet envelopes through a reference-counted lifecycle so
// the simulation hot path allocates no packets in steady state. One Pool
// belongs to one experiment (one scheduler); everything is single-threaded
// within an experiment, so counts are plain ints.
//
// Ownership rules (see DESIGN.md "Memory model"):
//   - Get returns a packet holding one reference, owned by the caller.
//   - Sending a packet transfers that reference to the network: the link
//     queue owns it while queued and in flight, and Release is called by
//     whoever terminates delivery — the queue on a drop-tail drop, the host
//     after its handlers return, the router after replicating.
//   - A component that keeps a packet beyond the transfer (retransmission
//     buffers) or replicates it (multicast fan-out) takes its own reference
//     with Retain and Releases it when done.
//   - A hop that must alter a shared packet (ECN marking, component
//     scrubbing) calls Writable first: sole owners are mutated in place,
//     shared packets are copied-on-write into a fresh pooled envelope.
type Pool struct {
	free []*Packet

	// Typed header freelists. Every header a steady-state sender mints per
	// packet or per slot is recycled alongside its envelope. A recyclable
	// header's lifetime is tied 1:1 to its envelope: the final Release
	// parks it, and every copy path (Writable's copy-on-write, Clone,
	// AdoptCopy) clones it so two envelopes never share one. A header owns
	// what a queued packet can reach through it — a SigmaHeader's Pairs and
	// Addrs backing arrays park and come back with it — except
	// KeyAnnounce.Tuples, which the Repeat × groups copies of one slot's
	// announcement share and the GC therefore owns.
	flid     freelist[FLIDHeader]
	tcp      freelist[TCPHeader]
	repl     freelist[ReplHeader]
	sigma    freelist[SigmaHeader]
	keyAnn   freelist[KeyAnnounce]
	feedback freelist[FeedbackHeader]
	share    freelist[ShareHeader]

	// Issued counts packets handed out (fresh or recycled); Recycled counts
	// envelopes returned to the freelist; Fresh counts heap allocations.
	Issued   uint64
	Recycled uint64
	Fresh    uint64
}

// freelist parks the recycled headers of one type.
type freelist[T any] struct{ sim.Freelist[T] }

// zeroed returns a recycled header reset to its zero value.
func (f *freelist[T]) zeroed() *T {
	h := f.Get()
	var zero T
	*h = zero
	return h
}

// park keeps h for reuse — unless the list already holds as many headers
// as the pool has envelopes. A header in use rides exactly one envelope, so
// a longer list could only be hoarding headers minted outside the pool
// (literals in tests and drivers); those are left to the GC.
func (f *freelist[T]) park(h *T, envelopes uint64) {
	if uint64(len(f.Freelist)) < envelopes {
		f.Put(h)
	}
}

// clone returns a recycled header holding a copy of *t.
func (f *freelist[T]) clone(t *T) *T {
	h := f.Get()
	*h = *t
	return h
}

// FLIDHeader returns a zeroed FLID header, recycled when possible. The
// header must be installed on a packet built from this pool; the packet's
// final Release returns it to the freelist. The other typed getters follow
// the same lifecycle.
func (pl *Pool) FLIDHeader() *FLIDHeader { return pl.flid.zeroed() }

// TCPHeader returns a zeroed, recycled TCP header.
func (pl *Pool) TCPHeader() *TCPHeader { return pl.tcp.zeroed() }

// ReplHeader returns a zeroed, recycled replicated-data header.
func (pl *Pool) ReplHeader() *ReplHeader { return pl.repl.zeroed() }

// SigmaHeader returns a zeroed, recycled SIGMA message whose Pairs and
// Addrs are empty but keep the capacity of their previous use: callers
// append into them instead of installing slices of their own.
func (pl *Pool) SigmaHeader() *SigmaHeader {
	h := pl.sigma.Get()
	*h = SigmaHeader{Pairs: h.Pairs[:0], Addrs: h.Addrs[:0]}
	return h
}

// KeyAnnounce returns a zeroed, recycled key-announce header.
func (pl *Pool) KeyAnnounce() *KeyAnnounce { return pl.keyAnn.zeroed() }

// FeedbackHeader returns a zeroed, recycled feedback report.
func (pl *Pool) FeedbackHeader() *FeedbackHeader { return pl.feedback.zeroed() }

// ShareHeader returns a zeroed, recycled fair-share advertisement.
func (pl *Pool) ShareHeader() *ShareHeader { return pl.share.zeroed() }

// cloneHeader copies a recyclable header through the pool freelists so no
// copy path ever leaves two envelopes pointing at one recyclable header
// (which the two final Releases would then park twice). A SigmaHeader's
// slices are copied into the clone's own backing arrays. Other header
// types stay shared — they are immutable and GC-owned.
func (pl *Pool) cloneHeader(h Header) Header {
	switch t := h.(type) {
	case *FLIDHeader:
		return pl.flid.clone(t)
	case *TCPHeader:
		return pl.tcp.clone(t)
	case *ReplHeader:
		return pl.repl.clone(t)
	case *SigmaHeader:
		c := pl.SigmaHeader()
		pairs, addrs := append(c.Pairs, t.Pairs...), append(c.Addrs, t.Addrs...)
		*c = *t
		c.Pairs, c.Addrs = pairs, addrs
		return c
	case *KeyAnnounce:
		return pl.keyAnn.clone(t)
	case *FeedbackHeader:
		return pl.feedback.clone(t)
	case *ShareHeader:
		return pl.share.clone(t)
	}
	return h
}

// envelope pops a recycled envelope (or heap-allocates a fresh one) and
// counts it as issued. Callers must fully initialize every field.
func (pl *Pool) envelope() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	} else {
		p = &Packet{}
		pl.Fresh++
	}
	pl.Issued++
	return p
}

// Get returns a packet owned by the caller (reference count 1), built
// exactly like New but drawing the envelope from the pool when possible.
func (pl *Pool) Get(src, dst Addr, size int, hdr Header) *Packet {
	p := pl.envelope()
	*p = Packet{pool: pl}
	p.init(src, dst, size, hdr)
	return p
}

// AdoptCopy duplicates p into an envelope owned by this pool and returns
// the copy with one reference. Recyclable headers are cloned through this
// pool's freelists so the copy's final Release parks them here; other
// header types are immutable and stay shared. This is the
// cross-shard hand-off primitive: a packet crossing a shard boundary is
// copied into the destination shard's pool at a quiescent point, and the
// original is released back to its own pool — each pool's balance closes
// independently.
func (pl *Pool) AdoptCopy(p *Packet) *Packet {
	q := pl.envelope()
	*q = *p
	q.pool = pl
	q.refs = 1
	q.Header = pl.cloneHeader(p.Header)
	return q
}

// Outstanding reports how many issued packets have not been released back —
// the leak gauge experiments assert on after draining their traffic.
func (pl *Pool) Outstanding() uint64 { return pl.Issued - pl.Recycled }

// FreePackets reports the freelist depth (test observability).
func (pl *Pool) FreePackets() int { return len(pl.free) }

// Retain takes an additional reference on the packet and returns it, so
// multicast fan-out shares one immutable envelope across all downstream
// branches instead of cloning per branch. Packets built with New (no pool)
// are reference-counted too — they just never return to a freelist.
func (p *Packet) Retain() *Packet {
	p.refs++
	return p
}

// Release drops one reference; the last release returns a pooled envelope
// to its freelist. Releasing more times than retained is a lifecycle bug
// and panics rather than corrupting the pool.
func (p *Packet) Release() {
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic("packet: Release without matching Retain/Get")
	}
	if p.pool == nil {
		return // un-pooled packet: the GC owns it
	}
	pl := p.pool
	pl.Recycled++
	switch t := p.Header.(type) { // park a recyclable header with its envelope
	case nil:
	case *FLIDHeader:
		pl.flid.park(t, pl.Fresh)
	case *TCPHeader:
		pl.tcp.park(t, pl.Fresh)
	case *ReplHeader:
		pl.repl.park(t, pl.Fresh)
	case *SigmaHeader:
		pl.sigma.park(t, pl.Fresh)
	case *KeyAnnounce:
		t.Tuples = nil // GC-owned and shared: do not pin it while parked
		pl.keyAnn.park(t, pl.Fresh)
	case *FeedbackHeader:
		pl.feedback.park(t, pl.Fresh)
	case *ShareHeader:
		pl.share.park(t, pl.Fresh)
	}
	p.Header = nil // drop the header reference while parked
	pl.free = append(pl.free, p)
}

// Refs reports the current reference count (test observability).
func (p *Packet) Refs() int { return int(p.refs) }

// Writable prepares the packet for mutation under the copy-on-write rule:
// a sole owner is returned as-is, while a shared packet is copied into a
// fresh envelope (pooled when possible) and the caller's reference on the
// original is released. The caller must continue with the returned packet.
// Both branches are full struct copies, so every Packet field — present
// and future — survives the CoW identically to Clone.
func (p *Packet) Writable() *Packet {
	if p.refs <= 1 {
		return p
	}
	var q *Packet
	if pl := p.pool; pl != nil {
		q = pl.envelope()
		*q = *p
		q.Header = pl.cloneHeader(p.Header)
	} else {
		c := *p
		q = &c
		q.Header = cloneHeaderHeap(p.Header)
	}
	q.refs = 1
	p.Release()
	return q
}
