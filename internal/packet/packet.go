// Package packet defines the packet model shared by every protocol in the
// simulator, in the spirit of gopacket's layer architecture: a fixed common
// header plus one typed protocol header.
//
// Packets travel as *Packet values and are never serialized. Each header
// states its on-the-wire size through WireLen, so the paper's Figure 6
// message formats and the DELTA component/decrease fields occupy real bytes
// on links and queues, which the §5.4 overhead accounting measures.
package packet

import (
	"fmt"
)

// Addr is a network address. The top nibble 0xE marks multicast group
// addresses, mirroring IPv4's 224.0.0.0/4.
type Addr uint32

// MulticastBase is the first multicast group address.
const MulticastBase Addr = 0xE0000000

// IsMulticast reports whether the address denotes a multicast group.
func (a Addr) IsMulticast() bool { return a >= MulticastBase }

// String renders the address dotted-quad style.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Group returns the i-th multicast address of a session whose groups start
// at base. Sessions allocate contiguous blocks.
func Group(base Addr, i int) Addr { return base + Addr(i) }

// Proto discriminates the typed header a packet carries.
type Proto uint8

// Protocol identifiers.
const (
	ProtoNone        Proto = iota // bare payload, no typed header
	ProtoFLID                     // layered multicast data (FLID-DL / FLID-DS)
	ProtoTCP                      // TCP segment (data or ACK)
	ProtoCBR                      // constant-bit-rate filler
	ProtoSigma                    // SIGMA control message (Figure 6)
	ProtoKeyAnnounce              // SIGMA special packet: address-key tuples for routers
	ProtoRepl                     // replicated multicast data (Figure 5 protocol)
	ProtoIGMP                     // plain IGMP join/leave (the insecure baseline)
	ProtoFeedback                 // consolidated receiver feedback report
	ProtoShare                    // network-assisted fair-share advertisement (mfcc)
	protoMax
)

var protoNames = [...]string{"none", "flid", "tcp", "cbr", "sigma", "keyann", "repl", "igmp", "feedback", "share"}

// String names the protocol.
func (p Proto) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// Header is a typed protocol header. Implementations live in headers.go.
type Header interface {
	// HeaderProto identifies the concrete header type.
	HeaderProto() Proto
	// WireLen is the header's length on the wire in bytes; it is part of
	// the packet's size accounting.
	WireLen() int
}

// Packet is one simulated datagram. Size is the total wire size in bytes
// (headers plus payload padding) and is what links and queues account.
//
// Packets are reference-counted (see pool.go): multicast fan-out shares one
// envelope across branches via Retain/Release, and pooled packets return to
// their Pool's freelist on the last Release. Header contents are immutable
// once sent; a hop that must alter the envelope or replace the header calls
// Writable first (copy-on-write).
type Packet struct {
	Src, Dst Addr
	Proto    Proto
	Size     int
	ECN      bool // congestion-experienced mark (ECN-driven variant)
	Alert    bool // router-alert: edge routers intercept, never forward to hosts
	// Doomed marks a headerless stand-in for a packet its first hop would
	// drop unseen (netsim.Doomer): its link serializes it like the packet
	// and retires it at tx-done.
	Doomed bool
	UID    uint64
	Header Header

	refs int32
	pool *Pool
}

// CommonWireLen is the wire length of the common header.
const CommonWireLen = 24

// init fills a zeroed envelope: one reference, proto derived from the
// header, and Size floored at the header bytes. Shared by New and
// Pool.Get so pooled and un-pooled packets can never disagree on sizing.
func (p *Packet) init(src, dst Addr, size int, hdr Header) {
	p.refs = 1
	p.Src, p.Dst, p.Size, p.Header = src, dst, size, hdr
	if hdr != nil {
		p.Proto = hdr.HeaderProto()
		if min := CommonWireLen + hdr.WireLen(); p.Size < min {
			p.Size = min
		}
	} else if p.Size < CommonWireLen {
		p.Size = CommonWireLen
	}
}

// New builds a packet around hdr, sizing it to max(size, header bytes). The
// packet is heap-allocated and never pooled; hot paths use Pool.Get instead.
func New(src, dst Addr, size int, hdr Header) *Packet {
	p := &Packet{}
	p.init(src, dst, size, hdr)
	return p
}

// Clone returns an independent un-pooled copy, header and header slices
// included. The simulator's replication paths use Retain/Writable instead —
// Clone remains for callers outside the pooled lifecycle (tests, one-shot
// tools).
func (p *Packet) Clone() *Packet {
	q := *p
	q.refs = 1
	q.pool = nil
	q.Header = cloneHeaderHeap(p.Header)
	return &q
}

// cloneHeaderHeap copies a header onto the GC heap so an un-pooled copy
// never aliases a header the original's Release will recycle: an empty pool
// has nothing parked, so every clone through it is fresh.
func cloneHeaderHeap(h Header) Header {
	var heap Pool
	return heap.cloneHeader(h)
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s %dB", p.Proto, p.Src, p.Dst, p.Size)
}
