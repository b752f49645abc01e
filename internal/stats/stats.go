// Package stats provides the measurement machinery behind every figure:
// throughput meters binned by the second, smoothed rate series, interval
// averages, and the Jain fairness index used to assert fair allocations in
// tests.
package stats

import (
	"math"
	"sort"

	"deltasigma/internal/sim"
)

// bin is a Meter's bin width, the figures' one-second resolution.
const bin = sim.Second

// Meter accumulates delivered bytes into one-second time bins: bin i holds
// the bytes delivered in [i s, (i+1) s). The zero value is ready to use.
type Meter struct {
	bins []float64 // bytes per bin
}

// Add records bytes delivered at virtual time t.
func (m *Meter) Add(t sim.Time, bytes int) {
	if t < 0 {
		return
	}
	idx := int(t / bin)
	if idx >= len(m.bins) {
		m.grow(idx)
	}
	m.bins[idx] += float64(bytes)
}

// grow extends bins through idx. Capacity doubles (to at least 16 bins, a
// short run's whole series), so a run of n bins allocates O(log n) times;
// the bins past len are zero, since the slice never shrinks.
func (m *Meter) grow(idx int) {
	if idx >= cap(m.bins) {
		bins := make([]float64, len(m.bins), max(2*cap(m.bins), idx+1, 16))
		copy(bins, m.bins)
		m.bins = bins
	}
	m.bins = m.bins[:idx+1]
}

// Bins reports how many bins hold data.
func (m *Meter) Bins() int { return len(m.bins) }

// RateKbps returns the throughput of one bin in Kbps.
func (m *Meter) RateKbps(idx int) float64 {
	if idx < 0 || idx >= len(m.bins) {
		return 0
	}
	return m.bins[idx] * 8 / bin.Sec() / 1000
}

// Point is one sample of a rate series.
type Point struct {
	T    float64 `json:"t"` // seconds
	Kbps float64 `json:"kbps"`
}

// Series renders the meter as a rate series smoothed with a centred moving
// average over `window` bins (the paper's curves are visibly smoothed;
// window 5 reproduces their look). Window <= 1 disables smoothing.
func (m *Meter) Series(window int) []Point {
	out := make([]Point, len(m.bins))
	for i := range m.bins {
		lo, hi := i, i
		if window > 1 {
			lo = i - window/2
			hi = i + window/2
		}
		if lo < 0 {
			lo = 0
		}
		if hi >= len(m.bins) {
			hi = len(m.bins) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += m.bins[j]
		}
		rate := sum / float64(hi-lo+1) * 8 / bin.Sec() / 1000
		out[i] = Point{T: float64(i) * bin.Sec(), Kbps: rate}
	}
	return out
}

// AvgKbps averages throughput over [from, to) at bin resolution: it sums
// the bins whose start lies in [from, to) and divides by to − from. A
// window that does not start and end on whole seconds therefore counts
// whole bins against a fractional span — [5.5 s, 6 s) reads zero, and
// [5 s, 5.5 s) reads the 5 s bin over half a second, about twice the rate.
// Only whole-second windows read the delivered rate.
func (m *Meter) AvgKbps(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var bytes float64
	for i := range m.bins {
		binStart := sim.Time(i) * bin
		if binStart >= from && binStart < to {
			bytes += m.bins[i]
		}
	}
	return bytes * 8 / (to - from).Sec() / 1000
}

// TotalBytes sums all recorded bytes.
func (m *Meter) TotalBytes() float64 {
	var s float64
	for _, b := range m.bins {
		s += b
	}
	return s
}

// Jain computes the Jain fairness index of the allocations: 1 is perfectly
// fair, 1/n maximally unfair.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-quantile (p in [0,1]) of xs with linear
// interpolation between order statistics. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already ascending-sorted slice —
// sort once, then take as many quantiles as needed.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(xs)))
}
