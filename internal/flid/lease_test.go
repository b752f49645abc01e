package flid_test

import (
	"fmt"
	"testing"

	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/flid"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sigma"
	"deltasigma/internal/sim"
	"deltasigma/internal/threshold"
	"deltasigma/internal/topo"
)

// A key receiver holds a DELTA accumulator only for the slots in flight —
// from a slot's first packet until its evaluation, two slots in steady
// state — so a session of m receivers builds about 2m accumulators, not
// one per ring entry (8m). The receivers share a 250 Kbps bottleneck with
// a shallow queue, so they keep probing into loss. Every receiver is
// stopped and restarted midway: the slots in flight at the stop are never
// evaluated, and their accumulators must not stay out of circulation.
func TestKeyReceiversLeaseAccumulators(t *testing.T) {
	const m = 64
	const slot = 250 * sim.Millisecond
	const slots = 600
	thresh := threshold.GradedThresholds(core.PaperSchedule().N)
	for _, tc := range []struct {
		name   string
		sender func(*netsim.Host, *core.Session, core.PeriodicUpgrades, *sim.RNG) *core.SlotSender
		newAcc func(n int) flid.Accumulator
	}{
		{"layered", func(h *netsim.Host, s *core.Session, p core.PeriodicUpgrades, rng *sim.RNG) *core.SlotSender {
			return flid.NewSender(h, s, flid.LayeredKeying, p, rng).SlotSender
		}, flid.Layered},
		{"threshold", func(h *netsim.Host, s *core.Session, p core.PeriodicUpgrades, rng *sim.RNG) *core.SlotSender {
			return flid.NewSender(h, s, flid.ShamirKeying(thresh), p, rng).SlotSender
		}, func(n int) flid.Accumulator { return delta.NewThresholdReceiver(n, thresh) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := topo.Spec{Kind: "dumbbell", CapacitiesBps: []int64{250_000}}.Build(1)
			d.Forward[0].Queue.CapBytes = 4 * 576 // a shallow drop-tail queue: probes into loss drop at once
			src := d.AttachSource("src")
			hosts := make([]*netsim.Host, m)
			for i := range hosts {
				hosts[i] = d.AttachReceiver(fmt.Sprintf("r%d", i), topo.DefaultDelay).Host
			}
			d.Finish()
			sigma.NewController(d.Routers[1], sigma.DefaultConfig(slot))
			sess := &core.Session{ID: 1, BaseAddr: packet.MulticastBase, Rates: core.PaperSchedule(), SlotDur: slot, PacketSize: 576}
			for _, a := range sess.Addrs() {
				d.Multicast().SetSource(a, src.ID())
			}
			snd := tc.sender(src, sess, core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}, d.Rand().Fork())

			built := 0
			counted := func(n int) flid.Accumulator { built++; return tc.newAcc(n) }
			rs := make([]*flid.DSReceiver, m)
			for i, h := range hosts {
				rs[i] = flid.NewDSReceiver(h, sess, d.Routers[1].Addr(), counted)
			}
			each := func(f func(r *flid.DSReceiver)) func() {
				return func() {
					for _, r := range rs {
						f(r)
					}
				}
			}

			lossy, dropped := 0, uint64(0)
			for k := sim.Time(1); k <= slots; k++ {
				d.Scheduler().At(k*slot, func() {
					if q := d.Forward[0].Queue.Dropped; q > dropped {
						lossy++
						dropped = q
					}
				})
			}
			d.Scheduler().At(0, func() { snd.Start(); each((*flid.DSReceiver).Start)() })
			d.Scheduler().At(300*slot+slot/3, each((*flid.DSReceiver).Stop))
			d.Scheduler().At(308*slot+slot/2, each((*flid.DSReceiver).Start))
			d.Scheduler().RunUntil(slots * slot)

			if lossy < 40 {
				t.Fatalf("only %d of %d slots saw the bottleneck drop: not a lossy run", lossy, slots)
			}
			if built > 3*m {
				t.Fatalf("%d receivers built %d accumulators over %d lossy slots, want at most %d", m, built, lossy, 3*m)
			}
			t.Logf("%d receivers, %d lossy slots: %d accumulators built", m, lossy, built)
		})
	}
}
