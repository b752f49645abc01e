package deltasigma_test

import (
	"encoding/json"
	"errors"
	"testing"

	"deltasigma"
)

// minConvergedLevel is the dumbbell/chain/star convergence floor per
// protocol. Layered protocols must climb toward the 250 Kbps fair level
// (3); abr-cf's receivers ride the session's single dynamic channel and
// structurally never report more than level 1 — its conformance signal is
// throughput, not subscription depth.
func minConvergedLevel(name string) int {
	if !protocolLayered(name) {
		return 1
	}
	return 2
}

// protocolLayered reports whether the protocol exposes multiple
// subscription levels through Receiver.Level.
func protocolLayered(name string) bool { return name != "abr-cf" }

// conformanceTopologies is the facade topology matrix every registered
// protocol must pass: the paper's dumbbell, a two-bottleneck chain and a
// star with per-edge gatekeepers.
func conformanceTopologies() []struct {
	name string
	opt  deltasigma.Option
} {
	return []struct {
		name string
		opt  deltasigma.Option
	}{
		{"dumbbell", deltasigma.WithDumbbell(250_000)},
		{"chain", deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "chain", CapacitiesBps: []int64{1_000_000, 250_000}})},
		{"star", deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{600_000, 250_000}})},
	}
}

// TestProtocolConformance is the registry-driven conformance suite: every
// registered protocol — paper variants and competitors alike — must run
// each shipped topology to convergence, share the bottleneck with
// cross-traffic, drain to a balanced packet pool under audit (also when
// stopped before any virtual time passes), stay
// deterministic at two seeds, and either field an inflated-subscription
// attacker or return the typed *NoAttackerError. Protocol-specific
// behavior (suppression numbers, gatekeeper enforcement, level spreads)
// stays in the dedicated tests; this suite pins the common contract.
func TestProtocolConformance(t *testing.T) {
	for _, name := range deltasigma.Protocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, tp := range conformanceTopologies() {
				tp := tp
				t.Run(tp.name, func(t *testing.T) {
					opts := append([]deltasigma.Option{tp.opt, deltasigma.WithProtocol(name), deltasigma.WithSeed(7)},
						protocolOptions(name)...)
					exp := deltasigma.MustNew(opts...)
					r := exp.AddSession(1).Receivers[0]
					maxLevel := 0
					var res *deltasigma.Result
					for at := deltasigma.Time(5) * deltasigma.Second; at <= 40*deltasigma.Second; at += 5 * deltasigma.Second {
						res = exp.Run(at)
						if lvl := r.Level(); lvl > maxLevel {
							maxLevel = lvl
						}
					}
					if want := minConvergedLevel(name); maxLevel < want {
						t.Fatalf("%s/%s: max level = %d, want >= %d", name, tp.name, maxLevel, want)
					}
					if avg := r.Meter().AvgKbps(20*deltasigma.Second, 40*deltasigma.Second); avg < 80 {
						t.Fatalf("%s/%s: throughput %.0f Kbps too low", name, tp.name, avg)
					}
					if u := res.Utilization(); u <= 0.1 || u > 1.05 {
						t.Fatalf("%s/%s: bottleneck utilization %.2f implausible", name, tp.name, u)
					}
					drainAndVerify(t, exp)
				})
			}

			t.Run("cross-traffic", func(t *testing.T) {
				opts := append([]deltasigma.Option{deltasigma.WithDumbbell(750_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(11)},
					protocolOptions(name)...)
				exp := deltasigma.MustNew(opts...)
				r := exp.AddSession(1).Receivers[0]
				tcpFlow := exp.AddTCP(0)
				exp.Run(40 * deltasigma.Second)
				if avg := r.Meter().AvgKbps(20*deltasigma.Second, 40*deltasigma.Second); avg < 50 {
					t.Fatalf("%s: multicast receiver starved at %.0f Kbps beside TCP", name, avg)
				}
				if avg := tcpFlow.Meter().AvgKbps(20*deltasigma.Second, 40*deltasigma.Second); avg < 50 {
					t.Fatalf("%s: TCP flow starved at %.0f Kbps", name, avg)
				}
				drainAndVerify(t, exp)
			})

			t.Run("stopped-at-zero", func(t *testing.T) {
				// StopTraffic on a fresh experiment must outrank the t=0
				// starts Start schedules: nothing transmits afterwards, and
				// the network drains clean.
				opts := append([]deltasigma.Option{deltasigma.WithDumbbell(250_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(5)},
					protocolOptions(name)...)
				exp := deltasigma.MustNew(opts...)
				exp.AddSession(2)
				exp.AddTCP(0)
				drainAndVerify(t, exp)
			})

			t.Run("determinism", func(t *testing.T) {
				for _, seed := range []uint64{3, 17} {
					first := conformanceResultJSON(t, name, seed)
					second := conformanceResultJSON(t, name, seed)
					if string(first) != string(second) {
						t.Fatalf("%s: seed %d not deterministic:\n%s\nvs\n%s", name, seed, first, second)
					}
				}
			})

			t.Run("attacker", func(t *testing.T) {
				opts := append([]deltasigma.Option{deltasigma.WithDumbbell(500_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(8),
					deltasigma.WithTimeline(deltasigma.AttackerOnset{At: 10 * deltasigma.Second, Session: 1})},
					protocolOptions(name)...)
				exp := deltasigma.MustNew(opts...)
				s := exp.AddSession(1)
				if !deltasigma.ProtocolHasAttacker(name) {
					_, err := s.TryAddAttacker()
					var nae *deltasigma.NoAttackerError
					if !errors.As(err, &nae) {
						t.Fatalf("%s: TryAddAttacker = %v, want *NoAttackerError", name, err)
					}
					if nae.Protocol != name || nae.Reason == "" {
						t.Fatalf("%s: NoAttackerError underspecified: %+v", name, nae)
					}
					return
				}
				atk, err := s.TryAddAttacker()
				if err != nil {
					t.Fatalf("%s: TryAddAttacker: %v", name, err)
				}
				exp.Run(25 * deltasigma.Second)
				if !atk.Attacker() {
					t.Fatalf("%s: attacker not flagged", name)
				}
				drainAndVerify(t, exp)
			})
		})
	}
}

// conformanceResultJSON runs one short dumbbell experiment and returns the
// serialized Result for byte comparison.
func conformanceResultJSON(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	opts := append([]deltasigma.Option{deltasigma.WithDumbbell(250_000), deltasigma.WithProtocol(name), deltasigma.WithSeed(seed)},
		protocolOptions(name)...)
	exp := deltasigma.MustNew(opts...)
	exp.AddSession(2)
	res := exp.Run(15 * deltasigma.Second)
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return out
}
