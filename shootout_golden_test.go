package deltasigma_test

import (
	"strings"
	"testing"

	"deltasigma"
	"deltasigma/internal/scenario"
)

// shootoutSweep is the canned competitor campaign pinned by
// testdata/shootout_golden.json: every registered protocol — the paper
// variants and the competitor suite alike — against three attacker models,
// at the scaled-down grid the CI determinism job replays.
func shootoutSweep() deltasigma.Sweep {
	c, ok := scenario.LookupCampaign("shootout")
	if !ok {
		panic("shootout campaign not registered")
	}
	return c.Build(scenario.Options{Scale: 0.2, Seed: 2003})
}

// TestShootoutGolden locks the head-to-head robustness shoot-out: the full
// protocol registry under classic, adaptive and forging attackers must
// produce byte-identical campaign JSON across worker counts, pinned
// against testdata/shootout_golden.json. Attackerless protocols (abr-cf)
// fail their attacker points with the typed no-attacker reason — the
// interesting structural result — and every other point must succeed.
func TestShootoutGolden(t *testing.T) {
	var res1 *deltasigma.CampaignResult
	checkGolden(t, "shootout_golden.json", campaignGolden(shootoutSweep(), &res1))

	// Structure check: only attackerless protocols may fail, and each of
	// their points must carry the typed no-attacker reason; every protocol
	// with an attacker must post a suppression reading.
	suppressed := map[string]bool{}
	for _, p := range res1.Points {
		hasAtk := deltasigma.ProtocolHasAttacker(p.Point.Protocol)
		switch {
		case !hasAtk && p.Error == "":
			t.Errorf("point %s: attackerless protocol ran an attacker point without error", p.Point)
		case !hasAtk && !strings.Contains(p.Error, "no inflated-subscription attacker"):
			t.Errorf("point %s: error %q is not the typed no-attacker reason", p.Point, p.Error)
		case hasAtk && p.Error != "":
			t.Errorf("point %s failed: %s", p.Point, p.Error)
		case hasAtk && p.Suppression > 0:
			suppressed[p.Point.Protocol] = true
		}
	}
	for _, name := range deltasigma.Protocols() {
		if deltasigma.ProtocolHasAttacker(name) && !suppressed[name] {
			t.Errorf("protocol %s posted no suppression reading — shoot-out is vacuous for it", name)
		}
	}

}
