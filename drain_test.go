package deltasigma_test

import (
	"testing"

	"deltasigma"
)

// drainGrace is the virtual time the shared helper allows for queued,
// in-flight and retransmitted packets to terminate after traffic stops.
const drainGrace = 10 * deltasigma.Second

// drainAndVerify is the facade test suite's shared leak check, built on the
// invariant layer: stop every traffic source, let the network drain, then
// run the end-of-run audit — pool balance (every pooled packet reference
// came back), per-link conservation, empty links, graft consistency and
// level bounds. Call
// it at the end of any facade-level test; it subsumes the hand-rolled
// pool.Outstanding()==0 checks the tests used to duplicate.
func drainAndVerify(t *testing.T, exp *deltasigma.Experiment) {
	t.Helper()
	if vs := exp.DrainAndAudit(drainGrace); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("invariant violated after drain: %v", v)
		}
	}
}
