package flid

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
	"deltasigma/internal/shamir"
	"deltasigma/internal/sim"
)

// An accumulator given back by an evaluated slot is the one the next slot
// leases, so nothing of its last slot may survive Begin: after a lossy,
// upgrade-signalled (and, for Layered, CE-marked) slot, a clean slot must
// conclude exactly as on a fresh accumulator fed the same packets, keys
// included.
func TestReleasedAccumulatorStartsClean(t *testing.T) {
	const top, pkts = 3, 4
	n := core.PaperSchedule().N
	thresh := make([]float64, n)
	for i := range thresh {
		thresh[i] = 0.25
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = pkts
	}
	upgrade, none := make([]bool, n), make([]bool, n)
	upgrade[top] = true // authorizes group top+1

	// A stamper begins a slot at the sender and fills each data header's
	// DELTA fields in emission order.
	type stamper func(slot uint32, auth []bool) func(h *packet.FLIDHeader)
	layered := func() stamper {
		s := delta.NewLayeredSender(n, keys.NewSource(keys.DefaultBits, sim.NewRNG(1).Uint64))
		return func(slot uint32, auth []bool) func(*packet.FLIDHeader) {
			ls := s.BeginSlot(slot, auth, counts)
			return func(h *packet.FLIDHeader) {
				h.HasDelta = true
				h.Component, h.Decrease = ls.Fields(int(h.Group))
			}
		}
	}
	shared := func() stamper {
		rng := sim.NewRNG(2)
		s := delta.NewThresholdSender(n, thresh, keys.NewSource(keys.DefaultBits, rng.Fork().Uint64), shamir.NewSplitter(rng.Fork().Uint64))
		return func(slot uint32, auth []bool) func(*packet.FLIDHeader) {
			ts, err := s.BeginSlot(slot, auth, counts)
			if err != nil {
				t.Fatal(err)
			}
			return func(h *packet.FLIDHeader) {
				share, up := ts.Shares(int(h.Group))
				h.ShareX, h.ShareY, h.UpShareX, h.UpShareY = share.X, share.Y, up.X, up.Y
			}
		}
	}
	// headers emits groups 1..top of one slot, signalling an increase to inc.
	headers := func(stamp stamper, slot uint32, auth []bool, inc int) []*packet.FLIDHeader {
		fill := stamp(slot, auth)
		var hs []*packet.FLIDHeader
		for g := 1; g <= top; g++ {
			for j := 1; j <= pkts; j++ {
				h := &packet.FLIDHeader{Session: 1, Group: uint8(g), Slot: slot, Seq: uint16(j), Count: pkts, IncreaseTo: uint8(inc)}
				fill(h)
				hs = append(hs, h)
			}
		}
		return hs
	}

	for _, tc := range []struct {
		name   string
		stamp  stamper
		newAcc func(n int) Accumulator
	}{
		{"layered", layered(), Layered},
		{"threshold", shared(), func(n int) Accumulator { return delta.NewThresholdReceiver(n, thresh) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &dsBatch{n: n, newAcc: tc.newAcc}
			mi := b.join()

			acc := b.deltaFor(mi, 1)
			for i, h := range headers(tc.stamp, 1, upgrade, top+1) {
				if h.Group == top && h.Seq > pkts/2 {
					continue // lost: half the top group, past any threshold
				}
				acc.Observe(h, i == 0) // the first packet carries a CE mark
			}
			dirty := b.take(mi, 1)
			if out := dirty.Finish(top, true); !out.Congested {
				t.Fatalf("lossy slot concluded %+v, want congested", out)
			}
			b.giveBack(dirty)

			clean := headers(tc.stamp, 2, none, 0)
			if b.deltaFor(mi, 2) != dirty {
				t.Fatal("slot 2 did not lease the accumulator slot 1 gave back")
			}
			fresh := tc.newAcc(n)
			fresh.Begin(2)
			for _, h := range clean {
				b.deltaFor(mi, 2).Observe(h, false)
				fresh.Observe(h, false)
			}
			got, want := b.take(mi, 2).Finish(top, true), fresh.Finish(top, true)
			if want.Congested || want.Next != top || len(want.Keys) != top {
				t.Fatalf("fresh accumulator concluded %+v on a clean slot, want level %d kept", want, top)
			}
			if got.Slot != want.Slot || got.Congested != want.Congested || got.Next != want.Next ||
				got.First != want.First || !slices.Equal(got.Keys, want.Keys) {
				t.Fatalf("reused accumulator concluded %+v, a fresh one %+v", got, want)
			}
		})
	}
}

// Joining m members copies O(m) bytes: batch columns grow by at least
// doubling, where append alone grows a large column by ~1.25× and copies a
// batch about five times over.
func TestBatchJoinCopiesLinearBytes(t *testing.T) {
	const joins = 4096
	n := core.PaperSchedule().N
	dl := &dlBatch{n: n}
	ds := &dsBatch{n: n, newAcc: Layered}
	for _, tc := range []struct {
		name  string
		join  func() int
		bytes func() uint64
	}{
		{"dlBatch", dl.join, func() uint64 {
			return colBytes(dl.level) + colBytes(dl.evalFloor) + colBytes(dl.joined) +
				colBytes(dl.tag) + colBytes(dl.inc) + colBytes(dl.got) + colBytes(dl.expect)
		}},
		{"dsBatch", ds.join, func() uint64 {
			return colBytes(ds.evalFloor) + colBytes(ds.joined) +
				colBytes(ds.inForce) + colBytes(ds.dtag) + colBytes(ds.drecv)
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range joins {
			tc.join()
		}
		runtime.ReadMemStats(&after)
		allocated, final := after.TotalAlloc-before.TotalAlloc, tc.bytes()
		if allocated > 3*final {
			t.Errorf("%s: %d joins allocated %d bytes for %d bytes of columns (%.1f×), want at most 3×",
				tc.name, joins, allocated, final, float64(allocated)/float64(final))
		}
	}
}

// colBytes is the size of a batch column's elements.
func colBytes[T any](s []T) uint64 {
	var zero T
	return uint64(len(s)) * uint64(unsafe.Sizeof(zero))
}
