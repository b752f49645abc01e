package deltasigma_test

import (
	"testing"

	"deltasigma"
	"deltasigma/internal/packet"
)

// A protected experiment under full audit — periodic sampling, suppression
// oracle, final drain checks — must be violation-free: this is the paper's
// core scenario run against every conservation law at once.
func TestAuditCleanProtectedAttackRun(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithSeed(7),
		deltasigma.WithAudit(
			deltasigma.AuditEvery(200*deltasigma.Millisecond),
			deltasigma.AuditSuppression(deltasigma.SuppressionOracle{
				From:      8 * deltasigma.Second,
				FloorKbps: 20,
			}),
		),
		deltasigma.WithTimeline(deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1}),
	)
	sess := exp.AddSession(2)
	sess.AddAttacker()
	exp.Advance(14 * deltasigma.Second)

	if vs := exp.DrainAndAudit(10 * deltasigma.Second); len(vs) > 0 {
		t.Fatalf("clean protected run reported %d violations:\n%v", len(vs), exp.Audit().Err())
	}
}

// The acceptance-criterion regression at experiment level: an intentionally
// injected accounting bug — a delivery observer that takes a reference and
// never releases it, the skip-a-Release class of lifecycle bug — must be
// caught by the audit layer's pool-balance law.
func TestAuditCatchesInjectedReferenceLeak(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithSeed(5),
		deltasigma.WithAudit(),
	)
	exp.AddSession(1)
	leaked := 0
	exp.Topo.Bottlenecks()[0].OnDeliver = func(pkt *packet.Packet) {
		if leaked < 3 { // the injected bug: three references never come back
			pkt.Retain()
			leaked++
		}
	}
	exp.Advance(3 * deltasigma.Second)
	vs := exp.DrainAndAudit(8 * deltasigma.Second)
	if len(vs) == 0 {
		t.Fatal("injected reference leak went undetected")
	}
	found := false
	for _, v := range vs {
		if v.Rule == "pool-balance" && v.Got == float64(leaked) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a pool-balance violation for %d leaked refs, got:\n%v", leaked, exp.Audit().Err())
	}
}

// The suppression oracle is a real oracle: pointed at the unprotected
// baseline — where the inflated-subscription attack succeeds — it must
// flag the attacker.
func TestOracleFlagsUnprotectedAttack(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-dl"),
		deltasigma.WithSeed(9),
		deltasigma.WithAudit(deltasigma.AuditSuppression(deltasigma.SuppressionOracle{
			From: 7 * deltasigma.Second,
		})),
		deltasigma.WithTimeline(deltasigma.AttackerOnset{At: 2 * deltasigma.Second, Session: 1}),
	)
	sess := exp.AddSession(1)
	sess.AddAttacker()
	exp.Advance(12 * deltasigma.Second)
	exp.StopTraffic()
	exp.Advance(exp.Now() + 8*deltasigma.Second)

	violated := false
	for _, v := range exp.Audit().Finish() {
		if v.Rule == "suppression-oracle" {
			violated = true
		}
	}
	if !violated {
		t.Fatal("oracle did not flag the successful FLID-DL attack")
	}
}

// A stop at t=0 ends the oracle window at zero, like a stop at any other
// time: an oracle from t=0 then has an empty window, and the audit says so
// instead of measuring up to the end of the drain.
func TestStopAtZeroEndsOracleWindow(t *testing.T) {
	exp := deltasigma.MustNew(
		deltasigma.WithProtocol("flid-ds"),
		deltasigma.WithAudit(deltasigma.AuditSuppression(deltasigma.SuppressionOracle{})),
	)
	exp.AddSession(2)
	vs := exp.DrainAndAudit(drainGrace)
	if len(vs) != 1 || vs[0].Rule != "oracle-window" {
		t.Fatalf("stop at t=0 with an oracle from t=0: violations %v, want one oracle-window", vs)
	}
}

// Without WithAudit the audit handle is nil but the structural drain check
// still works — the shared facade test helper relies on this.
func TestCheckDrainedWithoutAudit(t *testing.T) {
	exp := deltasigma.MustNew(deltasigma.WithProtocol("flid-ds"), deltasigma.WithSeed(3))
	if exp.Audit() != nil {
		t.Fatal("audit attached without WithAudit")
	}
	exp.AddSession(2)
	exp.Advance(3 * deltasigma.Second)
	if vs := exp.DrainAndAudit(8 * deltasigma.Second); len(vs) > 0 {
		t.Fatalf("structural drain check failed on a clean run: %v", vs)
	}
}
