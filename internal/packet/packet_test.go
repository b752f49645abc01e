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

func TestNewSizesUpToHeaders(t *testing.T) {
	h := &FLIDHeader{Session: 1}
	p := New(1, 2, 10, h) // 10 bytes is smaller than headers
	if p.Size != CommonWireLen+h.WireLen() {
		t.Fatalf("Size = %d, want %d", p.Size, CommonWireLen+h.WireLen())
	}
	p2 := New(1, 2, 576, h)
	if p2.Size != 576 {
		t.Fatalf("Size = %d, want 576", p2.Size)
	}
	if p2.Proto != ProtoFLID {
		t.Fatalf("Proto = %v", p2.Proto)
	}
	bare := New(1, 2, 4, nil)
	if bare.Size != CommonWireLen {
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
