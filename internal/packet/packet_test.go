package packet

import (
	"testing"
)

func TestAddrMulticast(t *testing.T) {
	if Addr(0x0a000001).IsMulticast() {
		t.Fatal("unicast address classified multicast")
	}
	if !MulticastBase.IsMulticast() {
		t.Fatal("multicast base not classified multicast")
	}
	if !Group(MulticastBase, 9).IsMulticast() {
		t.Fatal("group address not classified multicast")
	}
}

func TestGroupAllocation(t *testing.T) {
	base := MulticastBase + 0x100
	for i := 0; i < 10; i++ {
		if Group(base, i) != base+Addr(i) {
			t.Fatalf("Group(%d) = %v", i, Group(base, i))
		}
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0xE0000001).String(); got != "224.0.0.1" {
		t.Fatalf("String = %q, want 224.0.0.1", got)
	}
}

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{
		ProtoFLID: "flid", ProtoTCP: "tcp", ProtoSigma: "sigma",
		ProtoKeyAnnounce: "keyann", ProtoRepl: "repl", ProtoNone: "none",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("Proto(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
	if Proto(200).String() != "proto(200)" {
		t.Fatalf("unknown proto string = %q", Proto(200).String())
	}
}

// TestNewSizesUpToHeaders pins every header's WireLen, the one statement
// of its size on the wire, and checks that New floors a small packet at the
// common header plus that length.
func TestNewSizesUpToHeaders(t *testing.T) {
	cases := []struct {
		name string
		hdr  Header
		want int
	}{
		{"flid", &FLIDHeader{Session: 1}, 45},
		{"repl", &ReplHeader{}, 29},
		{"tcp", &TCPHeader{}, 17},
		{"cbr", &CBRHeader{}, 8},
		{"igmp", &IGMPHeader{}, 5},
		{"feedback", &FeedbackHeader{}, 20},
		{"share", &ShareHeader{}, 14},
		{"sigma", &SigmaHeader{}, 17},
		{"sigma-3pairs-2addrs", &SigmaHeader{Pairs: make([]AddrKey, 3), Addrs: make([]Addr, 2)}, 17 + 12*3 + 4*2},
		{"keyann", &KeyAnnounce{}, 10},
		{"keyann-4tuples", &KeyAnnounce{Tuples: make([]KeyTuple, 4)}, 10 + 29*4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.hdr.WireLen(); got != c.want {
				t.Fatalf("WireLen = %d, want %d", got, c.want)
			}
			p := New(1, 2, 4, c.hdr) // 4 bytes is smaller than any header
			if p.Size != CommonWireLen+c.want {
				t.Fatalf("Size = %d, want %d", p.Size, CommonWireLen+c.want)
			}
			if p.Proto != c.hdr.HeaderProto() {
				t.Fatalf("Proto = %v, want %v", p.Proto, c.hdr.HeaderProto())
			}
		})
	}
	if p := New(1, 2, 576, &FLIDHeader{}); p.Size != 576 {
		t.Fatalf("Size = %d, want 576", p.Size)
	}
	if bare := New(1, 2, 4, nil); bare.Size != CommonWireLen {
		t.Fatalf("bare Size = %d", bare.Size)
	}
}

func TestCloneIsIndependentCopy(t *testing.T) {
	p := New(1, 2, 576, &FLIDHeader{Group: 3})
	q := p.Clone()
	q.ECN = true
	if p.ECN {
		t.Fatal("clone mutation leaked into original")
	}
	// Headers are copied by value: the clone must not alias a header that
	// the original's pool lifecycle may recycle.
	if q.Header == p.Header {
		t.Fatal("clone should deep-copy a recyclable header")
	}
	if *(q.Header.(*FLIDHeader)) != *(p.Header.(*FLIDHeader)) {
		t.Fatal("cloned header differs in value")
	}
}

func TestPacketString(t *testing.T) {
	p := New(Addr(0x0a000001), MulticastBase, 576, &FLIDHeader{})
	if got := p.String(); got == "" {
		t.Fatal("empty String")
	}
}
