package topo

import (
	"testing"

	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

func TestPaperConfigDefaults(t *testing.T) {
	cfg := PaperConfig(1_000_000, 1)
	if cfg.HopDelay != 20*sim.Millisecond || sideDelay != 10*sim.Millisecond {
		t.Fatalf("delays wrong: hop %v, side %v", cfg.HopDelay, sideDelay)
	}
	if sideRate != 10_000_000 || bdpFactor != 2 {
		t.Fatalf("rates wrong: side %d, %d BDPs", sideRate, bdpFactor)
	}
}

func TestDumbbellQueueSizing(t *testing.T) {
	d := Dumbbell(PaperConfig(1_000_000, 1))
	// 2 × 1 Mbps × 80 ms RTT / 8 = 20000 bytes.
	if got := d.Forward[0].Queue.CapBytes; got != 20000 {
		t.Fatalf("bottleneck queue = %d bytes, want 20000", got)
	}
	if d.RTT() != 80*sim.Millisecond {
		t.Fatalf("RTT = %v, want 80ms", d.RTT())
	}
}

func TestDumbbellPathCrossesBottleneck(t *testing.T) {
	d := Dumbbell(PaperConfig(1_000_000, 1))
	src := d.AttachSource("s")
	dst := d.AttachReceiver("r", DefaultDelay).Host
	d.Finish()

	path := d.Network().Path(src.ID(), dst.ID())
	if len(path) != 4 {
		t.Fatalf("path length %d, want src-left-right-dst", len(path))
	}
	if path[1] != d.Routers[0].ID() || path[2] != d.Routers[1].ID() {
		t.Fatalf("path %v does not cross the bottleneck", path)
	}
	delay, ok := d.Network().PathDelay(src.ID(), dst.ID())
	if !ok || delay != 40*sim.Millisecond {
		t.Fatalf("one-way delay %v, want 40ms", delay)
	}
}

func TestReceiverDelayVariants(t *testing.T) {
	d := Dumbbell(PaperConfig(1_000_000, 1))
	src := d.AttachSource("s")
	fast := d.AttachReceiver("fast", 1*sim.Millisecond).Host
	slow := d.AttachReceiver("slow", 80*sim.Millisecond).Host
	d.Finish()

	fd, _ := d.Network().PathDelay(src.ID(), fast.ID())
	sd, _ := d.Network().PathDelay(src.ID(), slow.ID())
	if fd != 31*sim.Millisecond {
		t.Fatalf("fast path delay %v, want 31ms", fd)
	}
	if sd != 110*sim.Millisecond {
		t.Fatalf("slow path delay %v, want 110ms", sd)
	}
}

func TestReceiversAreLocalInterfaces(t *testing.T) {
	d := Dumbbell(PaperConfig(1_000_000, 1))
	r := d.AttachReceiver("r", DefaultDelay).Host
	d.Finish()
	if _, ok := d.Routers[1].Locals()[r.Addr()]; !ok {
		t.Fatal("receiver not attached as a local interface of the edge")
	}
}

func TestSourceNotLocalToEdge(t *testing.T) {
	d := Dumbbell(PaperConfig(1_000_000, 1))
	s := d.AttachSource("s")
	d.Finish()
	if _, ok := d.Routers[1].Locals()[s.Addr()]; ok {
		t.Fatal("source must not be a local interface of the right edge")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bottleneck should panic")
		}
	}()
	Dumbbell(Config{Capacities: []int64{0}})
}

func TestHostNaming(t *testing.T) {
	d := Dumbbell(PaperConfig(1_000_000, 1))
	a := d.AttachSource("")
	b := d.AttachReceiver("", DefaultDelay).Host
	if a.Name() == "" || b.Name() == "" || a.Name() == b.Name() {
		t.Fatalf("auto names wrong: %q %q", a.Name(), b.Name())
	}
	if a.Addr() == b.Addr() || a.Addr().IsMulticast() {
		t.Fatal("host addressing wrong")
	}
	_ = packet.Addr(0)
}
