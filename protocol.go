package deltasigma

import (
	"sort"

	"deltasigma/internal/core"
	"deltasigma/internal/flid"
	"deltasigma/internal/replicated"
	"deltasigma/internal/threshold"
)

// SenderAgent is a running protocol source: Start begins its slot loop at
// the session epoch, Stop halts it after the current slot.
type SenderAgent interface {
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

// Inflater is implemented by attacker agents: Inflate launches the
// inflated-subscription attack.
type Inflater interface {
	Inflate()
}

// Deflater is implemented by attacker agents that can call the attack off
// mid-run (the AttackerStop timeline event): Deflate withdraws the
// inflation and reverts to well-behaved congestion control. All built-in
// attackers implement it.
type Deflater interface {
	Deflate()
}

// EdgeAgent is a protocol's router-resident participant (see
// Capabilities.EdgeAgent).
type EdgeAgent interface {
	Start()
	Stop()
}

// Capabilities declares what a protocol brings beyond its sender and
// receivers. Every field is read once, at construction time.
type Capabilities struct {
	// Attacker reports whether NewAttacker can succeed, so sweeps and
	// fuzzers can skip attacker wiring without attaching throwaway hosts.
	Attacker bool
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
	EdgeAgent func(router *EdgeRouter, sessions []*Session) EdgeAgent
}

// Protocol builds the agents of one congestion control variant. The four
// paper variants — "flid-dl", "flid-ds", "flid-ds-replicated",
// "flid-ds-threshold" — and the competitor suite — "mfcc", "dsc",
// "abr-cf" (see rivals.go) — are registered at init; RegisterProtocol adds
// custom ones.
type Protocol interface {
	// Name is the registry key.
	Name() string
	// Protected reports whether the variant needs SIGMA gatekeepers at
	// the edges (false selects plain IGMP, the vulnerable baseline).
	Protected() bool
	// DefaultSlot is the paper's slot duration for the variant.
	DefaultSlot() Time
	// NewSender builds the session source on host.
	NewSender(host *Host, sess *Session, rng *RNG) SenderAgent
	// NewReceiver builds a well-behaved receiver on host against the
	// gatekeeper at edge.
	NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent
	// NewAttacker builds an inflated-subscription attacker, or errors if
	// the variant has none. The returned agent implements Inflater.
	NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error)
	// Capabilities declares attacker availability, cohort support,
	// feedback consumption and router participation.
	Capabilities() Capabilities
}

// announceRepeat is z, SIGMA's announcement FEC expansion factor (§5.4).
const announceRepeat = 2

// upgradePolicy is the standard increase-signal policy every built-in
// sender runs: periods stretching with the level, factor 2.
func upgradePolicy(sess *Session) core.UpgradePolicy {
	return core.PeriodicUpgrades{Factor: 2, N: sess.Rates.N}
}

// ---------------------------------------------------------------------------
// Registry.

var registry = map[string]Protocol{}

// RegisterProtocol adds p under p.Name(), replacing any previous entry.
func RegisterProtocol(p Protocol) { registry[p.Name()] = p }

// LookupProtocol resolves a registered protocol by name.
func LookupProtocol(name string) (Protocol, bool) {
	p, ok := registry[name]
	return p, ok
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterProtocol(FLIDProtocol{})
	RegisterProtocol(FLIDProtocol{DS: true})
	RegisterProtocol(ReplicatedProtocol{})
	RegisterProtocol(ThresholdProtocol{})
}

// ---------------------------------------------------------------------------
// FLID-DL / FLID-DS.

// FLIDProtocol is FLID-DL (DS false: plain IGMP, the vulnerable baseline)
// or FLID-DS (DS true: FLID-DL hardened with DELTA layered keying and
// SIGMA edge enforcement).
type FLIDProtocol struct {
	// DS selects the protected variant.
	DS bool
}

func (p FLIDProtocol) mode() flid.Mode {
	if p.DS {
		return flid.DS
	}
	return flid.DL
}

// Name implements Protocol.
func (p FLIDProtocol) Name() string {
	if p.DS {
		return "flid-ds"
	}
	return "flid-dl"
}

// Protected implements Protocol.
func (p FLIDProtocol) Protected() bool { return p.DS }

// DefaultSlot implements Protocol: 500 ms FLID-DL slots, 250 ms FLID-DS
// slots (§5.1; SIGMA's two-slot enforcement keeps the 500 ms control
// granularity).
func (p FLIDProtocol) DefaultSlot() Time {
	if p.DS {
		return 250 * Millisecond
	}
	return 500 * Millisecond
}

// NewSender implements Protocol.
func (p FLIDProtocol) NewSender(host *Host, sess *Session, rng *RNG) SenderAgent {
	return flid.NewSender(host, sess, p.mode(), upgradePolicy(sess), rng, nil, announceRepeat)
}

// NewReceiver implements Protocol.
func (p FLIDProtocol) NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent {
	if p.DS {
		return flid.NewDSReceiver(host, sess, edge, flid.Layered)
	}
	return flid.NewReceiver(host, sess, edge, flid.FLIDRule)
}

// NewAttacker implements Protocol.
func (p FLIDProtocol) NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error) {
	if p.DS {
		return flid.NewDSAttacker(flid.NewDSReceiver(host, sess, edge, flid.Layered), rng), nil
	}
	return flid.NewInflator(flid.NewReceiver(host, sess, edge, flid.FLIDRule)), nil
}

// Capabilities implements Protocol.
func (FLIDProtocol) Capabilities() Capabilities {
	return Capabilities{Attacker: true, Cohorts: true, Feedback: false, EdgeAgent: nil}
}

// ---------------------------------------------------------------------------
// Replicated multicast (Figure 5 instantiation).

// ReplicatedProtocol is destination-set-grouping multicast protected by
// the Figure 5 DELTA instantiation: every group carries the same content
// at a different rate and a receiver subscribes to exactly one group,
// switching with keys. Level() reports the current group.
//
// A replicated sender transmits every group at its cumulative rate, so the
// summed stream rates must fit the source's access link; the paper's
// 10-group schedule sums to ≈11.3 Mbps and overflows the default 10 Mbps
// access links — pair this variant with a smaller schedule (e.g.
// WithSchedule(RateSchedule{Base: 100_000, Mult: 1.5, N: 6})).
type ReplicatedProtocol struct{}

// Name implements Protocol.
func (ReplicatedProtocol) Name() string { return "flid-ds-replicated" }

// Protected implements Protocol.
func (ReplicatedProtocol) Protected() bool { return true }

// DefaultSlot implements Protocol.
func (ReplicatedProtocol) DefaultSlot() Time { return 250 * Millisecond }

// NewSender implements Protocol.
func (ReplicatedProtocol) NewSender(host *Host, sess *Session, rng *RNG) SenderAgent {
	return replicated.NewSender(host, sess, upgradePolicy(sess), rng, announceRepeat)
}

// NewReceiver implements Protocol.
func (ReplicatedProtocol) NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent {
	return replicated.NewReceiver(host, sess, edge)
}

// NewAttacker implements Protocol.
func (ReplicatedProtocol) NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error) {
	return replicated.NewAttacker(replicated.NewReceiver(host, sess, edge), rng), nil
}

// Capabilities implements Protocol: replicated sessions carry ProtoRepl
// data the layered fluid aggregate never observes, so no cohorts.
func (ReplicatedProtocol) Capabilities() Capabilities {
	return Capabilities{Attacker: true, Cohorts: false, Feedback: false, EdgeAgent: nil}
}

// ---------------------------------------------------------------------------
// Loss-rate-threshold protocol (Shamir instantiation).

// ThresholdProtocol is the RLM/WEBRC-family layered protocol whose
// receivers are congested only when per-level loss exceeds a tolerance,
// protected by the Shamir-sharing DELTA instantiation. A nil Thresholds
// uses WEBRC-style graded tolerances sized to the session's group count.
type ThresholdProtocol struct {
	// Thresholds holds the per-level loss tolerances; nil derives graded
	// defaults from the rate schedule.
	Thresholds []float64
}

func (p ThresholdProtocol) thresholds(sess *Session) []float64 {
	if p.Thresholds != nil {
		return p.Thresholds
	}
	return threshold.GradedThresholds(sess.Rates.N)
}

// Name implements Protocol.
func (ThresholdProtocol) Name() string { return "flid-ds-threshold" }

// Protected implements Protocol.
func (ThresholdProtocol) Protected() bool { return true }

// DefaultSlot implements Protocol.
func (ThresholdProtocol) DefaultSlot() Time { return 250 * Millisecond }

// NewSender implements Protocol.
func (p ThresholdProtocol) NewSender(host *Host, sess *Session, rng *RNG) SenderAgent {
	return threshold.NewSender(host, sess, p.thresholds(sess), upgradePolicy(sess), rng, announceRepeat)
}

// NewReceiver implements Protocol.
func (p ThresholdProtocol) NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent {
	return threshold.NewReceiver(host, sess, p.thresholds(sess), edge)
}

// NewAttacker implements Protocol.
func (p ThresholdProtocol) NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error) {
	return flid.NewDSAttacker(threshold.NewReceiver(host, sess, p.thresholds(sess), edge), rng), nil
}

// Capabilities implements Protocol.
func (ThresholdProtocol) Capabilities() Capabilities {
	return Capabilities{Attacker: true, Cohorts: true, Feedback: false, EdgeAgent: nil}
}
