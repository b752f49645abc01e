package deltasigma_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"deltasigma"
	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/fuzzing"
	"deltasigma/internal/scenario"
)

// bothWays runs f once with the doomed-packet fast path on and once with
// every doomed packet built, carried and delivered, and returns the two
// outputs in that order.
func bothWays[T any](t *testing.T, f func() T) (fast, simulated T) {
	t.Helper()
	was := deltasigma.SimulateDoomedPackets(false)
	t.Cleanup(func() { deltasigma.SimulateDoomedPackets(was) })
	fast = f()
	deltasigma.SimulateDoomedPackets(true)
	simulated = f()
	deltasigma.SimulateDoomedPackets(was)
	return fast, simulated
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestDoomedPacketsChangeNoResult is the fast path's differential test: a
// doomed packet goes out as a headerless stand-in that ends at tx-done,
// and that must be invisible. Every figure at scale 0.03, the shoot-out
// campaign at scale 0.2 and every spec of the pinned fuzz corpus produce
// the same result JSON with the fast path on as with it off.
func TestDoomedPacketsChangeNoResult(t *testing.T) {
	for _, fig := range scenario.Figures {
		t.Run(fig.Name, func(t *testing.T) {
			fast, simulated := bothWays(t, func() []byte {
				return mustJSON(t, fig.Run(scenario.Options{Scale: 0.03, Seed: 2003}))
			})
			if !bytes.Equal(fast, simulated) {
				t.Errorf("%s differs with doomed packets simulated:\nfast:      %.300s\nsimulated: %.300s", fig.Name, fast, simulated)
			}
		})
	}

	t.Run("shootout", func(t *testing.T) {
		fast, simulated := bothWays(t, func() []byte {
			res, err := shootoutSweep().Run(2)
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, res)
		})
		if !bytes.Equal(fast, simulated) {
			t.Error("shoot-out campaign differs with doomed packets simulated")
		}
	})

	t.Run("fuzz-corpus", func(t *testing.T) {
		for seed := uint64(1); seed <= fuzzGoldenSeeds; seed++ {
			spec := fuzzing.Generate(seed)
			fast, simulated := bothWays(t, func() []byte { return runSpec(t, spec) })
			if !bytes.Equal(fast, simulated) {
				t.Errorf("fuzz seed %d differs with doomed packets simulated:\nfast:      %.300s\nsimulated: %.300s", seed, fast, simulated)
			}
		}
	})
}

// runSpec runs one fuzz spec as the fuzzer does, under the sampled audit,
// and returns its result JSON; a violation fails the test.
func runSpec(t *testing.T, spec fuzzing.Spec) []byte {
	t.Helper()
	opts, err := spec.Options()
	if err != nil {
		t.Fatalf("seed %d: %v", spec.Seed, err)
	}
	exp, err := deltasigma.New(append(opts, deltasigma.WithAudit(deltasigma.AuditEvery(fuzzing.AuditInterval)))...)
	if err != nil {
		t.Fatalf("seed %d: %v", spec.Seed, err)
	}
	defer exp.Close()
	if err := spec.Wire(exp); err != nil {
		t.Fatalf("seed %d: %v", spec.Seed, err)
	}
	res := exp.Run(spec.Duration())
	for _, v := range exp.DrainAndAudit(fuzzing.DrainGrace) {
		t.Errorf("seed %d: %v", spec.Seed, v)
	}
	return mustJSON(t, res)
}

// slotSender returns the slot loop under a FLID source.
func slotSender(t *testing.T, a deltasigma.Agent) *core.SlotSender {
	t.Helper()
	switch s := a.(type) {
	case *core.SlotSender:
		return s
	case *flid.Sender:
		return s.SlotSender
	}
	t.Fatalf("sender %T is no FLID source", a)
	return nil
}

// TestDoomedShareFloor keeps the fast path from switching itself off
// unnoticed. In the benchmark's million-member session, a 10^6 cohort on
// a 250 Kbps dumbbell, the upper groups have no branch most of the time,
// so at least 80 % of the source's data packets must go out as doomed
// stand-ins.
func TestDoomedShareFloor(t *testing.T) {
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		t.Run(proto, func(t *testing.T) {
			exp := deltasigma.MustNew(deltasigma.WithDumbbell(250_000), deltasigma.WithProtocol(proto), deltasigma.WithSeed(2003))
			defer exp.Close()
			s := exp.AddSession(0)
			s.AddCohort(1_000_000)
			exp.Run(30 * deltasigma.Second)
			sent := slotSender(t, s.Sender).PacketsSent
			access := exp.Topo.Network().OutLinks(s.Source().ID())[0]
			if share := float64(access.Doomed) / float64(sent); share < 0.8 {
				t.Errorf("%d of %d data packets doomed (%.1f %%), want at least 80 %%", access.Doomed, sent, 100*share)
			}
		})
	}
}

// TestDoomedStandInsKeepTheirSize checks, for every registered protocol,
// that a doomed stand-in is exactly as large as the packet it replaces:
// the source's access link serializes the same packets and bytes with the
// fast path on as off, and the fast path did replace packets. The
// receivers join a second in, so even a single-channel source sends a
// second of doomed packets. The small packet size is below every data
// header's wire length, so the real packets are sized by their header,
// which the stand-ins do not carry.
func TestDoomedStandInsKeepTheirSize(t *testing.T) {
	for _, proto := range deltasigma.Protocols() {
		for _, size := range []int{576, 40} {
			t.Run(fmt.Sprintf("%s/%dB", proto, size), func(t *testing.T) {
				type reading struct{ arrived, sentBytes, doomed uint64 }
				run := func() reading {
					opts := append([]deltasigma.Option{
						deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(proto),
						deltasigma.WithSeed(5), deltasigma.WithPacketSize(size),
					}, protocolOptions(proto)...)
					exp := deltasigma.MustNew(opts...)
					defer exp.Close()
					s := exp.AddSession(0)
					s.AddReceiver().StartAt(deltasigma.Second)
					s.AddReceiver().StartAt(deltasigma.Second)
					exp.Run(5 * deltasigma.Second)
					l := exp.Topo.Network().OutLinks(s.Source().ID())[0]
					return reading{l.Arrived, l.SentBytes, l.Doomed}
				}
				fast, simulated := bothWays(t, run)
				if fast.doomed == 0 {
					t.Fatal("no packet went out doomed; the size check is vacuous")
				}
				if fast.arrived != simulated.arrived || fast.sentBytes != simulated.sentBytes {
					t.Errorf("access link serialized %d packets, %d bytes with stand-ins; %d packets, %d bytes without",
						fast.arrived, fast.sentBytes, simulated.arrived, simulated.sentBytes)
				}
			})
		}
	}
}
