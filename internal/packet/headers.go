package packet

import (
	"deltasigma/internal/keys"
)

// FLIDHeader is the data-packet header for layered multicast sessions
// (FLID-DL and FLID-DS). Count lets a receiver detect loss at slot end even
// when the lost packet is the last of the slot; IncreaseTo carries the
// slot's upgrade authorization (paper §3.1.1: "when authorized"). The DELTA
// in-band key fields ride along when the session is protected: Component is
// the c_{g,p} nonce of Figure 4 and Decrease is the d_g nonce. ShareX/ShareY
// carry a Shamir share for the threshold instantiation (§3.1.2, Eq. 8).
type FLIDHeader struct {
	Session    uint16
	Group      uint8  // 1-based group index within the session
	Slot       uint32 // time-slot number
	Seq        uint16 // 1-based sequence within (slot, group)
	Count      uint16 // total packets this group transmits this slot
	IncreaseTo uint8  // 0: no upgrade authorized; g: upgrade to group g authorized

	HasDelta  bool // component/decrease fields are meaningful
	Component keys.Key
	Decrease  keys.Key

	// Shamir shares for the threshold instantiation (§3.1.2): the share of
	// this level's key, and — when an upgrade is authorized — the share of
	// the next level's increase key. Zero when unused.
	ShareX, ShareY     uint32
	UpShareX, UpShareY uint32
}

// HeaderProto implements Header.
func (*FLIDHeader) HeaderProto() Proto { return ProtoFLID }

// WireLen implements Header.
func (*FLIDHeader) WireLen() int { return 2 + 1 + 4 + 2 + 2 + 1 + 1 + 8 + 8 + 4 + 4 + 4 + 4 }

// ReplHeader is the data-packet header for replicated multicast sessions
// (the Figure 5 protocol): each group carries the full content at its own
// rate, so there is no cumulative layering, but slotted loss detection and
// the DELTA fields are the same shape as in the layered case.
type ReplHeader struct {
	Session    uint16
	Group      uint8
	Slot       uint32
	Seq        uint16
	Count      uint16
	IncreaseTo uint8

	HasDelta  bool
	Component keys.Key
	Decrease  keys.Key
}

// HeaderProto implements Header.
func (*ReplHeader) HeaderProto() Proto { return ProtoRepl }

// WireLen implements Header.
func (*ReplHeader) WireLen() int { return 2 + 1 + 4 + 2 + 2 + 1 + 1 + 8 + 8 }

// TCPHeader is the minimal Reno segment header: byte-granularity sequence
// and cumulative acknowledgment numbers.
type TCPHeader struct {
	Flow  uint32 // connection identifier
	Seq   uint32 // first payload byte carried by this segment
	Len   uint32 // payload bytes carried (0 for pure ACKs)
	Ack   uint32 // next byte expected by the sender of this segment
	IsAck bool
}

// HeaderProto implements Header.
func (*TCPHeader) HeaderProto() Proto { return ProtoTCP }

// WireLen implements Header.
func (*TCPHeader) WireLen() int { return 4 + 4 + 4 + 4 + 1 }

// CBRHeader identifies constant-bit-rate filler traffic.
type CBRHeader struct {
	Flow uint32
	Seq  uint32
}

// HeaderProto implements Header.
func (*CBRHeader) HeaderProto() Proto { return ProtoCBR }

// WireLen implements Header.
func (*CBRHeader) WireLen() int { return 8 }

// SigmaKind discriminates the SIGMA receiver→router messages of Figure 6
// plus the router→receiver acknowledgment.
type SigmaKind uint8

// SIGMA message kinds.
const (
	SigmaSessionJoin SigmaKind = iota + 1 // Figure 6(a)
	SigmaSubscribe                        // Figure 6(b)
	SigmaUnsubscribe                      // Figure 6(c)
	SigmaAck                              // router acknowledgment of a subscription
)

var sigmaKindNames = [...]string{"", "session-join", "subscribe", "unsubscribe", "ack"}

// String names the message kind.
func (k SigmaKind) String() string {
	if int(k) < len(sigmaKindNames) {
		return sigmaKindNames[k]
	}
	return "sigma(?)"
}

// AddrKey binds a group address to the key submitted for it, the unit of
// the Figure 6(b) subscription message.
type AddrKey struct {
	Addr Addr
	Key  keys.Key
}

// SigmaHeader is a SIGMA control message between a receiver and its local
// edge router. Exactly the fields for Kind are meaningful.
type SigmaHeader struct {
	Kind    SigmaKind
	Slot    uint32    // subscription / ack: the time slot keys apply to
	Minimal Addr      // session-join: address of the session's minimal group
	Pairs   []AddrKey // subscribe: requested groups with keys
	Addrs   []Addr    // unsubscribe: abandoned groups
	AckID   uint32    // correlates a subscribe with its ack
}

// HeaderProto implements Header.
func (*SigmaHeader) HeaderProto() Proto { return ProtoSigma }

// WireLen implements Header.
func (h *SigmaHeader) WireLen() int {
	return 1 + 4 + 4 + 4 + 2 + len(h.Pairs)*12 + 2 + len(h.Addrs)*4
}

// IGMPOp is the operation of an IGMP message.
type IGMPOp uint8

// IGMP operations.
const (
	IGMPJoin  IGMPOp = 1
	IGMPLeave IGMPOp = 2
)

// IGMPHeader is a plain group-management message: the unrestricted
// membership protocol (RFC 2236 behaviourally) that SIGMA replaces. A
// misbehaving receiver abuses exactly this interface — IGMP never verifies
// eligibility, so any host can join any group it can name (§2.2).
type IGMPHeader struct {
	Op    IGMPOp
	Group Addr
}

// HeaderProto implements Header.
func (*IGMPHeader) HeaderProto() Proto { return ProtoIGMP }

// WireLen implements Header.
func (*IGMPHeader) WireLen() int { return 5 }

// FeedbackHeader is a per-slot receiver-status report travelling upstream
// toward the session source. Routers running hierarchical consolidation
// (Fahmy-style, PAPERS.md) merge the reports of their children and forward
// one consolidated report per (session, slot) upstream, so feedback volume
// at the root scales with tree fan-out rather than receiver population.
type FeedbackHeader struct {
	Session   uint16
	Slot      uint32
	Count     uint64 // receivers represented by this report
	MaxLevel  uint8  // highest subscription level among them
	Congested bool   // any represented receiver saw loss this slot
	Reports   uint32 // raw reports merged into this one (1 at the leaf)
}

// HeaderProto implements Header.
func (*FeedbackHeader) HeaderProto() Proto { return ProtoFeedback }

// WireLen implements Header.
func (*FeedbackHeader) WireLen() int { return 2 + 4 + 8 + 1 + 1 + 4 }

// ShareHeader is a network-assisted fair-share advertisement (the mfcc
// scheme after Thomas et al., PAPERS.md): the edge router divides its
// upstream bottleneck capacity by the subscribers it currently serves and
// unicasts the resulting per-receiver share downstream. Receivers translate
// the share into a subscription level; nothing enforces that they do.
type ShareHeader struct {
	Session     uint16
	ShareBps    int64  // advertised fair share in bits/s
	Subscribers uint32 // local subscribers the router divided capacity by
}

// HeaderProto implements Header.
func (*ShareHeader) HeaderProto() Proto { return ProtoShare }

// WireLen implements Header.
func (*ShareHeader) WireLen() int { return 2 + 8 + 4 }

// KeyTuple binds a group address to the keys that open it for one time
// slot: the top key always, the decrease key for groups 2..N (it unlocks
// the group below), and the increase key when the protocol authorized an
// upgrade to this group (paper §3.2.1).
type KeyTuple struct {
	Addr   Addr
	Top    keys.Key
	Dec    keys.Key
	Inc    keys.Key
	HasDec bool
	HasInc bool
}

// KeyTupleWireLen is one KeyTuple's length on the wire: the address, three
// 64-bit keys and a flags byte for HasDec/HasInc.
const KeyTupleWireLen = 4 + 8 + 8 + 8 + 1

// KeyAnnounce is the SIGMA special packet carrying address-key tuples from
// the sender to edge routers. Its Alert bit instructs edge routers to
// intercept it; FECIndex/FECTotal number the copies of the repetition code
// that delivers it (§3.2.1, "to ensure reliable delivery ... SIGMA uses
// forward error correction").
type KeyAnnounce struct {
	Session  uint16
	Slot     uint32
	FECIndex uint8 // which repetition copy this is
	FECTotal uint8 // total copies emitted for the slot
	Tuples   []KeyTuple
}

// HeaderProto implements Header.
func (*KeyAnnounce) HeaderProto() Proto { return ProtoKeyAnnounce }

// WireLen implements Header.
func (h *KeyAnnounce) WireLen() int { return 2 + 4 + 1 + 1 + 2 + len(h.Tuples)*KeyTupleWireLen }
