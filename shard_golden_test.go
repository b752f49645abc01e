package deltasigma_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasigma"
)

// sweepShards is the shard count the sharded golden tests run the pinned
// campaigns at. CI's determinism job varies it (alongside -sweep-workers)
// to prove the goldens are independent of the execution partition, not an
// artifact of one lucky shard count.
var sweepShards = flag.Int("sweep-shards", 2, "shard count the sharded golden tests compare against serial")

// shardScenario builds the differential scenario: a protected two-session
// run with heterogeneous access delays plus TCP and CBR cross traffic —
// SIGMA control exchanges, DELTA keys, IGMP grafts and cross-traffic
// queueing all cross the shard cut. shards < 0 means WithShards was never
// given (the plain serial engine).
func shardScenario(t *testing.T, shards int) (*deltasigma.Experiment, *deltasigma.Result) {
	t.Helper()
	opts := []deltasigma.Option{
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithDumbbell(1_000_000),
		deltasigma.WithSeed(7),
	}
	if shards >= 0 {
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
	return exp, exp.Run(8 * deltasigma.Second)
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

// TestShardedMatchesSerial is the tentpole's headline claim as a test: the
// typed Result of a sharded run is byte-identical to the serial engine's at
// every shard count, including auto.
func TestShardedMatchesSerial(t *testing.T) {
	_, base := shardScenario(t, -1)
	want := stripSharding(t, base)
	for _, n := range []int{1, 2, 3, 0} {
		_, res := shardScenario(t, n)
		if got := stripSharding(t, res); !bytes.Equal(got, want) {
			t.Errorf("WithShards(%d) changed the Result:\ngot:  %s\nwant: %s", n, got, want)
		}
	}
}

// TestShardingObservability pins the metadata block of an actively sharded
// run: shard count, migrated hosts, window count, per-shard event totals
// and the efficiency gauge.
func TestShardingObservability(t *testing.T) {
	exp, res := shardScenario(t, 2)
	shards, migrated, fallback := exp.ShardStatus()
	if shards != 2 || migrated != 12 || fallback != "" {
		t.Fatalf("ShardStatus() = (%d, %d, %q), want (2, 12, \"\")", shards, migrated, fallback)
	}
	sh := res.Sharding
	if sh == nil {
		t.Fatal("no sharding block on a WithShards(2) result")
	}
	if sh.Shards != 2 || sh.MigratedHosts != 12 || sh.FallbackReason != "" {
		t.Errorf("sharding block = %+v, want 2 shards, 12 migrated hosts, no fallback", sh)
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
}

// TestShardFallbackReasons pins every path by which a shard request
// degrades to serial execution — each with its recorded reason — plus the
// rejections that never build at all.
func TestShardFallbackReasons(t *testing.T) {
	runShort := func(t *testing.T, opts ...deltasigma.Option) *deltasigma.Result {
		t.Helper()
		all := append([]deltasigma.Option{
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithDumbbell(500_000),
			deltasigma.WithShards(2),
		}, opts...)
		exp, err := deltasigma.New(all...)
		if err != nil {
			t.Fatal(err)
		}
		exp.AddSession(2)
		return exp.Run(deltasigma.Second)
	}

	t.Run("audit", func(t *testing.T) {
		res := runShort(t, deltasigma.WithAudit())
		if res.Sharding == nil || res.Sharding.Shards != 1 || !strings.Contains(res.Sharding.FallbackReason, "audit") {
			t.Errorf("sharding block = %+v, want serial fallback naming the audit", res.Sharding)
		}
	})

	t.Run("timeline option", func(t *testing.T) {
		res := runShort(t, deltasigma.WithTimeline(
			deltasigma.LinkDown{At: 200 * deltasigma.Millisecond, Link: 0},
			deltasigma.LinkUp{At: 300 * deltasigma.Millisecond, Link: 0},
		))
		if res.Sharding == nil || res.Sharding.Shards != 1 || !strings.Contains(res.Sharding.FallbackReason, "timeline") {
			t.Errorf("sharding block = %+v, want serial fallback naming the timeline", res.Sharding)
		}
	})

	t.Run("events before receivers downgrade", func(t *testing.T) {
		exp, err := deltasigma.New(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithDumbbell(500_000),
			deltasigma.WithShards(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		exp.AddEvents(deltasigma.LinkDown{At: 200 * deltasigma.Millisecond, Link: 0})
		exp.AddSession(2)
		res := exp.Run(deltasigma.Second)
		if res.Sharding == nil || res.Sharding.Shards != 1 || !strings.Contains(res.Sharding.FallbackReason, "timeline") {
			t.Errorf("sharding block = %+v, want serial downgrade naming the timeline", res.Sharding)
		}
	})

	t.Run("events after migration panic", func(t *testing.T) {
		exp, err := deltasigma.New(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithDumbbell(500_000),
			deltasigma.WithShards(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		exp.AddSession(2)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("AddEvents after migration did not panic")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "migrated") {
				t.Fatalf("panic = %v, want a migrated-receivers message", r)
			}
		}()
		exp.AddEvents(deltasigma.LinkDown{At: 200 * deltasigma.Millisecond, Link: 0})
	})

	t.Run("negative rejected", func(t *testing.T) {
		_, err := deltasigma.New(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithDumbbell(500_000),
			deltasigma.WithShards(-1),
		)
		if err == nil || !strings.Contains(err.Error(), "WithShards") {
			t.Fatalf("WithShards(-1) error = %v, want rejection", err)
		}
	})
}

// TestSweepGoldenSharded replays the three pinned sweep campaigns with
// Sweep.Shards set: static points run sharded, dynamic points take the
// serial fallback, and the campaign JSON must stay byte-identical to the
// serial goldens on disk.
func TestSweepGoldenSharded(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by the serial tests")
	}
	cases := []struct {
		name   string
		sweep  deltasigma.Sweep
		golden string
	}{
		{"sweep", goldenSweep(), "sweep_golden.json"},
		{"churn", dynamicsSweep(), "churn_golden.json"},
		{"million", millionSweep(), "million_golden.json"},
		// Every shootout point carries an attacker, so the shard request
		// falls back to serial on each — the trivial but load-bearing claim
		// that a -sweep-shards run cannot move the competitor numbers.
		{"shootout", shootoutSweep(), "shootout_golden.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.sweep
			sw.Shards = *sweepShards
			res, err := sw.Run(*sweepWorkers)
			if err != nil {
				t.Fatal(err)
			}
			js, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("missing golden file (run the serial test with -update-golden): %v", err)
			}
			if !bytes.Equal(js, want) {
				t.Errorf("%s campaign with Shards=%d diverged from its serial golden", tc.name, sw.Shards)
			}
		})
	}
}
