package deltasigma

import (
	"fmt"

	"deltasigma/internal/abrcf"
	"deltasigma/internal/core"
	"deltasigma/internal/dsc"
	"deltasigma/internal/flid"
	"deltasigma/internal/mfcc"
	"deltasigma/internal/replicated"
	"deltasigma/internal/threshold"
)

// Agent is a running protocol participant that is not a receiver — a
// session source or a router-resident agent: Start begins its slot loop in
// the current slot, Stop halts it after the current slot.
type Agent interface {
	Start()
	Stop()
}

// ReceiverAgent is a running protocol receiver. The kit's receivers
// (internal/flid's two kernels, internal/replicated) satisfy it directly.
type ReceiverAgent interface {
	Start()
	Stop()
	// Level reports the current subscription level (for replicated
	// sessions, the current group).
	Level() int
	// Meter returns the receiver's delivered-bytes meter.
	Meter() *Meter
}

// Attacker is a receiver that can inflate its subscription: Inflate
// launches the attack, Deflate withdraws it (the AttackerStop timeline
// event) and reverts to well-behaved congestion control, and Inflated
// reports whether the attack is active.
type Attacker interface {
	ReceiverAgent
	Inflate()
	Deflate()
	Inflated() bool
}

// Protocol is one congestion control variant: a row of decision rules
// over the shared kit (see docs/PROTOCOLS.md). The seven built-in rows are
// looked up by name (LookupProtocol); WithProtocolImpl runs any other value.
// Every field is read at construction time. TryAddAttacker builds a row's
// attacker from its Receiver.
type Protocol struct {
	// Name is the registry key.
	Name string
	// Protected selects SIGMA gatekeepers at the edges (false selects
	// plain IGMP, the vulnerable baseline).
	Protected bool
	// Slot is the variant's default slot duration.
	Slot Time
	// Cohorts reports whether AddCohort can aggregate receivers. The fluid
	// aggregate models FLID slot rules over layered data; variants whose
	// receivers follow other rules — replicated group switching, share
	// advertisements, a single dynamic channel — cannot.
	Cohorts bool
	// Feedback reports whether the sender consumes receiver feedback
	// reports (dsc, abr-cf). Experiment.Start then enables hierarchical
	// feedback consolidation at the routers, exactly as it does when
	// cohorts exist, unless WithFeedbackConsolidation(false).
	Feedback bool
	// EdgeAgent, when non-nil, builds the protocol's participant on one
	// gatekept edge router (mfcc's fair-share advertiser). Experiment.Start
	// calls it once per edge, after the gatekeeper is installed, and starts
	// every agent at time zero.
	EdgeAgent func(router *EdgeRouter, sessions []*Session) Agent
	// Sender builds the session source on host.
	Sender func(host *Host, sess *Session, rng *RNG) Agent
	// Receiver builds a well-behaved receiver on host against the
	// gatekeeper at edge.
	Receiver func(host *Host, sess *Session, edge Addr) ReceiverAgent

	// noAttacker, when set, says why the row has no attacker although its
	// receiver could be turned into one.
	noAttacker string
}

// check reports the first field that leaves p unable to run a session.
func (p *Protocol) check() error {
	var field string
	switch {
	case p.Name == "":
		field = "Name is empty"
	case p.Sender == nil:
		field = "Sender is nil"
	case p.Receiver == nil:
		field = "Receiver is nil"
	case p.Slot <= 0:
		field = fmt.Sprintf("Slot %v is not positive", p.Slot)
	default:
		return nil
	}
	return fmt.Errorf("deltasigma: protocol %q: %s", p.Name, field)
}

// NoAttackerError is the typed "not applicable" TryAddAttacker returns when
// the protocol has no inflated-subscription attack surface — e.g. abr-cf,
// whose single dynamic channel leaves nothing to inflate into. Sweeps
// record it per point.
type NoAttackerError struct {
	// Protocol is the registry name of the variant.
	Protocol string
	// Reason says why inflation is structurally impossible.
	Reason string
}

// Error implements error.
func (e *NoAttackerError) Error() string {
	return fmt.Sprintf("deltasigma: protocol %q has no inflated-subscription attacker: %s", e.Protocol, e.Reason)
}

// attacker builds an inflated-subscription attacker on host from the
// row's own receiver: the attack depends only on what the receiver's edge
// lets it join. A plain-IGMP receiver (*flid.Receiver) joins every group
// (§2.1); a SIGMA key receiver keeps its fair share and guesses keys for
// the groups above it (§4.2) with draws from rng; any other receiver has
// no attack, and the error is a *NoAttackerError.
func (p *Protocol) attacker(host *Host, sess *Session, edge Addr, rng *RNG) (Attacker, error) {
	switch r := p.Receiver(host, sess, edge).(type) {
	case *flid.Receiver:
		return flid.NewInflator(r), nil
	case flid.KeyReceiver:
		return flid.NewKeyAttacker(sess, r, rng), nil
	}
	return nil, &NoAttackerError{p.Name, "its receiver neither joins by plain IGMP nor submits SIGMA keys"}
}

// upgradePolicy is the standard increase-signal policy every built-in
// sender runs: periods stretching with the level, g−1 seconds for group g
// whatever the row's slot. FLID-DL's factor 2 at 500 ms sets that pace; a
// row with shorter slots stretches its factor to match (4 at 250 ms), so
// every row authorizes each group equally often per virtual second.
func upgradePolicy(sess *Session) core.PeriodicUpgrades {
	return core.PeriodicUpgrades{Factor: 2 * float64(500*Millisecond) / float64(sess.SlotDur), N: sess.Rates.N}
}

// plainSender is the FLID-DL source the unprotected layered rows run: the
// bare slot loop, each group paced at its own rate.
func plainSender(host *Host, sess *Session, rng *RNG) Agent {
	return core.NewSlotSender(host, sess, sess.Rates.N, upgradePolicy(sess), rng, core.SenderHooks{Rate: sess.Rates.GroupRate})
}

// ThresholdProtocol is the RLM/WEBRC-family layered protocol whose
// receivers are congested only when per-level loss exceeds a tolerance,
// protected by the Shamir-sharing DELTA instantiation. thresholds holds
// the per-level loss tolerances; nil derives WEBRC-style graded tolerances
// from the session's group count — the registered "flid-ds-threshold".
func ThresholdProtocol(thresholds []float64) Protocol {
	tolerances := func(sess *Session) []float64 {
		if thresholds != nil {
			return thresholds
		}
		return threshold.GradedThresholds(sess.Rates.N)
	}
	return Protocol{
		Name: "flid-ds-threshold", Protected: true, Slot: 250 * Millisecond, Cohorts: true,
		Sender: func(host *Host, sess *Session, rng *RNG) Agent {
			return flid.NewSender(host, sess, flid.ShamirKeying(tolerances(sess)), upgradePolicy(sess), rng)
		},
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return threshold.NewReceiver(host, sess, tolerances(sess), edge)
		},
	}
}

// protocols is the registry, in name order: Protocols lists it as is, and
// the shoot-out's protocol axis follows it. docs/PROTOCOLS.md states each
// row's rules and attack surface.
var protocols = []Protocol{
	// abr-cf: one AIMD channel steered by consolidated reports (Fahmy et
	// al.). No attacker, the shoot-out's structural negative result, and
	// no cohorts: a single channel has no layered moves to aggregate.
	{
		Name: "abr-cf", Slot: 500 * Millisecond, Feedback: true,
		Sender: func(host *Host, sess *Session, rng *RNG) Agent {
			return abrcf.NewSender(host, sess, rng)
		},
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return abrcf.NewReceiver(host, sess, edge)
		},
		noAttacker: "every receiver already subscribes to the session's single dynamic channel; there is no higher layer to inflate into",
	},
	// dsc: FLID receivers reporting each slot, a source scaling its
	// layers to the consolidated reports (Lucas et al.).
	{
		Name: "dsc", Slot: 500 * Millisecond, Cohorts: true, Feedback: true,
		Sender: func(host *Host, sess *Session, rng *RNG) Agent {
			return dsc.NewSender(host, sess, upgradePolicy(sess), rng)
		},
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return dsc.NewReceiver(host, sess, edge)
		},
	},
	// flid-dl: FLID-DL over plain IGMP, the vulnerable baseline (§5.1).
	{
		Name: "flid-dl", Slot: 500 * Millisecond, Cohorts: true,
		Sender: plainSender,
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return flid.NewReceiver(host, sess, edge, flid.FLIDRule)
		},
	},
	// flid-ds: FLID-DL behind DELTA layered keys and SIGMA; its 250 ms
	// slots keep a 500 ms control granularity under two-slot enforcement,
	// and upgradePolicy keeps flid-dl's increase signals per second.
	{
		Name: "flid-ds", Protected: true, Slot: 250 * Millisecond, Cohorts: true,
		Sender: func(host *Host, sess *Session, rng *RNG) Agent {
			return flid.NewSender(host, sess, flid.LayeredKeying, upgradePolicy(sess), rng)
		},
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return flid.NewDSReceiver(host, sess, edge, flid.Layered)
		},
	},
	// flid-ds-replicated: one group per receiver, switched with Figure 5
	// keys; Level() reports the group. Every group is sent at its
	// cumulative rate, so the paper's 10-group schedule (≈11.3 Mbps)
	// overflows 10 Mbps access links: pair it with a ~6-group schedule.
	{
		Name: "flid-ds-replicated", Protected: true, Slot: 250 * Millisecond,
		Sender: func(host *Host, sess *Session, rng *RNG) Agent {
			return flid.NewSender(host, sess, flid.ReplicatedKeying, upgradePolicy(sess), rng)
		},
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return replicated.NewReceiver(host, sess, edge)
		},
	},
	ThresholdProtocol(nil),
	// mfcc: edge routers advertise fair shares that receivers steer by
	// (Thomas et al.), over the FLID-DL source and plain IGMP. Share
	// steering is outside the fluid aggregate, so no cohorts.
	{
		Name: "mfcc", Slot: 500 * Millisecond,
		EdgeAgent: func(router *EdgeRouter, sessions []*Session) Agent {
			return mfcc.NewEdgeAgent(router, sessions)
		},
		Sender: plainSender,
		Receiver: func(host *Host, sess *Session, edge Addr) ReceiverAgent {
			return mfcc.NewReceiver(host, sess, edge)
		},
	},
}

// LookupProtocol resolves a registered protocol by name.
func LookupProtocol(name string) (Protocol, bool) {
	for _, p := range protocols {
		if p.Name == name {
			return p, true
		}
	}
	return Protocol{}, false
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []string {
	out := make([]string, len(protocols))
	for i, p := range protocols {
		out[i] = p.Name
	}
	return out
}

// ProtocolHasAttacker reports whether the named registered protocol has an
// inflated-subscription attacker: every row but abr-cf, whose single
// channel leaves nothing to inflate into (false for unknown names).
func ProtocolHasAttacker(name string) bool {
	p, ok := LookupProtocol(name)
	return ok && p.noAttacker == ""
}
