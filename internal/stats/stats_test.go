package stats

import (
	"math"
	"testing"
	"testing/quick"

	"deltasigma/internal/sim"
)

func TestMeterBinning(t *testing.T) {
	m := new(Meter)
	m.Add(100*sim.Millisecond, 1000)
	m.Add(900*sim.Millisecond, 1000)
	m.Add(1500*sim.Millisecond, 500)
	if m.Bins() != 2 {
		t.Fatalf("bins = %d, want 2", m.Bins())
	}
	// Bin 0 holds 2000 bytes → 16 Kbps over 1 s.
	if got := m.RateKbps(0); got != 16 {
		t.Fatalf("bin0 = %v Kbps, want 16", got)
	}
	if got := m.RateKbps(1); got != 4 {
		t.Fatalf("bin1 = %v Kbps, want 4", got)
	}
	if m.RateKbps(-1) != 0 || m.RateKbps(99) != 0 {
		t.Fatal("out-of-range bins must be 0")
	}
}

// A meter's bins grow geometrically: a 60 s series at 1 s bins costs three
// allocations (16, 32, 64 bins), not one per power of two from 1, and every
// bin between two readings reads zero.
func TestMeterGrowsGeometrically(t *testing.T) {
	var m *Meter
	allocs := testing.AllocsPerRun(1, func() {
		m = new(Meter)
		for s := 0; s < 60; s += 7 {
			m.Add(sim.Time(s)*sim.Second, 1000)
		}
		m.Add(59*sim.Second, 1000)
	})
	if allocs != 4 { // the meter and three bin arrays
		t.Errorf("a 60-bin meter allocated %.0f times, want 4", allocs)
	}
	if m.Bins() != 60 {
		t.Fatalf("bins = %d, want 60", m.Bins())
	}
	for i := 0; i < 60; i++ {
		want := 0.0
		if i%7 == 0 || i == 59 {
			want = 8
		}
		if got := m.RateKbps(i); got != want {
			t.Fatalf("bin %d reads %v Kbps, want %v", i, got, want)
		}
	}
}

func TestMeterIgnoresNegativeTime(t *testing.T) {
	m := new(Meter)
	m.Add(-sim.Second, 1000)
	if m.Bins() != 0 {
		t.Fatal("negative timestamps must be ignored")
	}
}

func TestAvgKbps(t *testing.T) {
	m := new(Meter)
	for i := 0; i < 10; i++ {
		m.Add(sim.Time(i)*sim.Second+sim.Millisecond, 12500) // 100 Kbps
	}
	if got := m.AvgKbps(0, 10*sim.Second); math.Abs(got-100) > 0.01 {
		t.Fatalf("avg = %v, want 100", got)
	}
	if got := m.AvgKbps(5*sim.Second, 10*sim.Second); math.Abs(got-100) > 0.01 {
		t.Fatalf("half-window avg = %v, want 100", got)
	}
	if m.AvgKbps(5*sim.Second, 5*sim.Second) != 0 {
		t.Fatal("empty window must be 0")
	}
}

func TestSeriesSmoothing(t *testing.T) {
	m := new(Meter)
	// A single spike in bin 5, with empty bins through 8.
	m.Add(5*sim.Second+sim.Millisecond, 125000) // 1000 Kbps
	m.Add(8*sim.Second, 0)
	raw := m.Series(1)
	if raw[5].Kbps != 1000 {
		t.Fatalf("raw spike = %v", raw[5].Kbps)
	}
	smooth := m.Series(5)
	if smooth[5].Kbps >= raw[5].Kbps {
		t.Fatal("smoothing should spread the spike")
	}
	if smooth[3].Kbps == 0 || smooth[7].Kbps == 0 {
		t.Fatal("smoothing window should reach neighbours")
	}
	if smooth[0].T != 0 || smooth[5].T != 5 {
		t.Fatal("series timestamps wrong")
	}
}

func TestTotalBytes(t *testing.T) {
	m := new(Meter)
	m.Add(0, 10)
	m.Add(3*sim.Second, 20)
	if m.TotalBytes() != 30 {
		t.Fatalf("total = %v", m.TotalBytes())
	}
}

func TestJainIndex(t *testing.T) {
	if got := Jain([]float64{100, 100, 100}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v, want 1", got)
	}
	// One user hogging: index → 1/n.
	if got := Jain([]float64{300, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("hog: %v, want 1/3", got)
	}
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs must be 0")
	}
}

func TestJainBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		allZero := true
		for i, r := range raw {
			xs[i] = float64(r % 10000)
			if xs[i] != 0 {
				allZero = false
			}
		}
		if allZero {
			return Jain(xs) == 0
		}
		j := Jain(xs)
		return j >= 1.0/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if math.Abs(StdDev(xs)-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Fatal("Percentile mutated its input")
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("Percentile(single) = %v, want 7", got)
	}
}
