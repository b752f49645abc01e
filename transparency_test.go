package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// transparencyTwin names the unprotected protocol whose decisions a
// protected row enacts through keys. A protected row without a twin is
// held to an absolute bar instead: its top group on an uncongested path.
var transparencyTwin = map[string]string{
	"flid-ds":           "flid-dl",
	"flid-ds-threshold": "flid-dl",
}

// transparencySetups are paths on which no receiver is ever congested:
// a lossless dumbbell, a star of lossless spokes, and a dumbbell whose
// on/off CBR cross traffic leaves ample headroom.
var transparencySetups = []struct {
	name  string
	opt   deltasigma.Option
	cross func(*deltasigma.Experiment)
}{
	{"dumbbell-4M", deltasigma.WithDumbbell(4_000_000), nil},
	{"star-3x4M", deltasigma.WithTopology(deltasigma.TopologySpec{Kind: "star", CapacitiesBps: []int64{4_000_000, 4_000_000, 4_000_000}}), nil},
	{"dumbbell-40M+cbr", deltasigma.WithDumbbell(40_000_000), func(e *deltasigma.Experiment) {
		e.AddCBR(5_000_000, 5*deltasigma.Second, 5*deltasigma.Second)
	}},
}

// transparencyRun is what one run of a setup reads: the highest level any
// receiver reached, sampled every second, the lowest level a receiver
// ends on, the session's group count, and the receivers' aggregate
// throughput over the run.
type transparencyRun struct {
	top, held, groups int
	agg               float64
}

func runTransparency(t *testing.T, name string, setup int, seed uint64) transparencyRun {
	t.Helper()
	const receivers, dur = 6, 30 * deltasigma.Second
	s := transparencySetups[setup]
	opts := append([]deltasigma.Option{s.opt, deltasigma.WithProtocol(name), deltasigma.WithSeed(seed)}, protocolOptions(name)...)
	exp := deltasigma.MustNew(opts...)
	sess := exp.AddSession(receivers)
	if s.cross != nil {
		s.cross(exp)
	}
	var out transparencyRun
	var res *deltasigma.Result
	for at := deltasigma.Second; at <= dur; at += deltasigma.Second {
		res = exp.Run(at)
		for _, r := range sess.Receivers {
			out.top = max(out.top, r.Level())
		}
	}
	out.held, out.groups = out.top, sess.Sess.Rates.N
	for _, r := range res.Receivers {
		out.agg += r.AvgKbps
		out.held = min(out.held, r.Level)
	}
	return out
}

// TestProtectionIsTransparent is the paper's claim that DELTA and SIGMA
// cost an honest receiver nothing (Fig 8a–d), as a differential oracle:
// on paths where no receiver is congested, every protected row with an
// unprotected twin reaches the twin's top level with an aggregate within
// 5 % of the twin's, and a row without one holds its top group.
func TestProtectionIsTransparent(t *testing.T) {
	seeds := []uint64{7, 2003}
	for _, name := range deltasigma.Protocols() {
		p, _ := deltasigma.LookupProtocol(name)
		if !p.Protected {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			twin := transparencyTwin[name]
			for i, s := range transparencySetups {
				for _, seed := range seeds {
					got := runTransparency(t, name, i, seed)
					if twin == "" {
						if got.held != got.groups {
							t.Errorf("%s, seed %d: a receiver ends on group %d, want the top group %d (aggregate %.0f Kbps)",
								s.name, seed, got.held, got.groups, got.agg)
						}
						continue
					}
					want := runTransparency(t, twin, i, seed)
					if got.top != want.top {
						t.Errorf("%s, seed %d: top level %d, %s reaches %d", s.name, seed, got.top, twin, want.top)
					}
					if d := got.agg/want.agg - 1; d < -0.05 || d > 0.05 {
						t.Errorf("%s, seed %d: aggregate %.0f Kbps, %s's %.0f (%+.1f %%, bound ±5 %%)",
							s.name, seed, got.agg, twin, want.agg, 100*d)
					}
				}
			}
		})
	}
}
