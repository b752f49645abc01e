package deltasigma_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"deltasigma"
)

// shardScenario runs the differential scenario: a two-session run of the
// protocol with heterogeneous access delays plus TCP and CBR cross traffic
// — IGMP grafts, cross-traffic queueing and, under flid-ds, SIGMA control
// exchanges and DELTA keys all cross the shard cut. shards = 0 leaves
// WithShards out (the plain serial engine).
func shardScenario(t *testing.T, protocol string, shards int) *deltasigma.Result {
	t.Helper()
	opts := []deltasigma.Option{
		deltasigma.WithProtocol(protocol),
		deltasigma.WithDumbbell(1_000_000),
		deltasigma.WithSeed(7),
	}
	if shards > 0 {
		opts = append(opts, deltasigma.WithShards(shards))
	}
	exp, err := deltasigma.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		sess := exp.AddSession(0)
		for i := 0; i < 6; i++ {
			sess.AddReceiverDelay(deltasigma.Time(2+3*i) * deltasigma.Millisecond)
		}
	}
	exp.AddTCP(0)
	exp.AddCBR(150_000, deltasigma.Second, deltasigma.Second)
	return exp.Run(8 * deltasigma.Second)
}

// stripSharding marshals a Result minus its sharding metadata block — the
// only field allowed to differ between execution modes.
func stripSharding(t *testing.T, res *deltasigma.Result) []byte {
	t.Helper()
	sh := res.Sharding
	res.Sharding = nil
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	res.Sharding = sh
	return js
}

// TestShardedMatchesSerial is the sharded engine's headline claim as a
// test: for the unprotected and the protected FLID variant, the typed
// Result of a sharded run is byte-identical to the serial engine's at
// every shard count.
func TestShardedMatchesSerial(t *testing.T) {
	for _, protocol := range []string{"flid-dl", "flid-ds"} {
		want := stripSharding(t, shardScenario(t, protocol, 0))
		for _, n := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", protocol, n), func(t *testing.T) {
				if got := stripSharding(t, shardScenario(t, protocol, n)); !bytes.Equal(got, want) {
					t.Errorf("WithShards(%d) changed the Result:\ngot:  %s\nwant: %s", n, got, want)
				}
			})
		}
	}
}

// TestShardingObservability pins the metadata block of an actively sharded
// run — shard count, migrated hosts, window count, per-shard event totals
// and the efficiency gauge — and of the two runs that execute on shard 0:
// WithShards(1), and a fan-out whose zero-delay hosts cannot migrate.
func TestShardingObservability(t *testing.T) {
	sh := shardScenario(t, "flid-ds", 2).Sharding
	if sh == nil {
		t.Fatal("no sharding block on a WithShards(2) result")
	}
	if sh.Shards != 2 || sh.MigratedHosts != 12 {
		t.Errorf("sharding block = %+v, want 2 shards, 12 migrated hosts", sh)
	}
	if sh.Windows == 0 {
		t.Error("no conservative windows recorded")
	}
	if sh.Efficiency <= 0 || sh.Efficiency > 1 {
		t.Errorf("efficiency %g outside (0,1]", sh.Efficiency)
	}
	if len(sh.PerShard) != 2 {
		t.Fatalf("per-shard stats = %d entries, want 2", len(sh.PerShard))
	}
	for i, ps := range sh.PerShard {
		if ps.Events == 0 {
			t.Errorf("shard %d fired no events", i)
		}
	}
	if sh.PerShard[1].MailboxMax == 0 {
		t.Error("no cross-shard envelopes ever reached shard 1")
	}

	for _, tc := range []struct {
		shards int
		delay  deltasigma.Time
	}{{1, deltasigma.DefaultDelay}, {2, 0}} {
		exp := deltasigma.MustNew(deltasigma.WithShards(tc.shards))
		exp.AddSession(0).AddReceiverDelay(tc.delay)
		sh := exp.Run(deltasigma.Second).Sharding
		if sh == nil || sh.Shards != 1 || sh.MigratedHosts != 0 || sh.Windows != 0 {
			t.Errorf("WithShards(%d), access delay %v: sharding block = %+v, want 1 shard, nothing migrated", tc.shards, tc.delay, sh)
		}
	}
}

// TestShardRefusals pins the WithShards contract: a shard count below 1
// never builds, and on a sharded experiment every call whose runtime
// behaviour would cross the shard cut is refused with an error (or, for the
// panicking wiring calls, a panic) naming WithShards and the call.
func TestShardRefusals(t *testing.T) {
	build := func(opts ...deltasigma.Option) (*deltasigma.Experiment, error) {
		return deltasigma.New(append([]deltasigma.Option{
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithDumbbell(500_000),
		}, opts...)...)
	}
	// sharded is a two-shard experiment with one session of two receivers.
	sharded := func(t *testing.T) (*deltasigma.Experiment, *deltasigma.ExperimentSession) {
		exp, err := build(deltasigma.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		return exp, exp.AddSession(2)
	}
	strategy := func(st deltasigma.AttackerStrategy) func(*testing.T) error {
		return func(t *testing.T) error {
			_, s := sharded(t)
			_, err := s.TryAddAttacker(deltasigma.WithStrategy(st))
			if len(s.Receivers) != 2 {
				t.Errorf("%d receivers after a refused attacker, want the 2 honest ones", len(s.Receivers))
			}
			return err
		}
	}
	panics := func(f func()) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		f()
		return nil
	}
	linkDown := deltasigma.LinkDown{At: 200 * deltasigma.Millisecond, Link: 0}

	cases := []struct {
		name   string
		refuse func(t *testing.T) error
		want   string // the conflicting call the message names
	}{
		{"zero shards", func(*testing.T) error {
			_, err := build(deltasigma.WithShards(0))
			return err
		}, "WithShards(0)"},
		{"negative shards", func(*testing.T) error {
			_, err := build(deltasigma.WithShards(-1))
			return err
		}, "WithShards(-1)"},
		{"audit", func(*testing.T) error {
			_, err := build(deltasigma.WithShards(2), deltasigma.WithAudit())
			return err
		}, "WithAudit"},
		{"timeline", func(*testing.T) error {
			_, err := build(deltasigma.WithShards(2), deltasigma.WithTimeline(linkDown))
			return err
		}, "WithTimeline"},
		{"colluding attacker", strategy(deltasigma.StrategyColluding), "TryAddAttacker"},
		{"adaptive attacker", strategy(deltasigma.StrategyAdaptive), "TryAddAttacker"},
		{"forging attacker", strategy(deltasigma.StrategyForging), "TryAddAttacker"},
		{"AddAttacker panics", func(t *testing.T) error {
			_, s := sharded(t)
			return panics(func() { s.AddAttacker(deltasigma.WithStrategy(deltasigma.StrategyAdaptive)) })
		}, "TryAddAttacker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.refuse(t)
			if err == nil || !strings.Contains(err.Error(), "WithShards") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want a refusal naming WithShards and %s", err, tc.want)
			}
		})
	}
}
