package deltasigma

import (
	"fmt"

	"deltasigma/internal/abrcf"
	"deltasigma/internal/dsc"
	"deltasigma/internal/flid"
	"deltasigma/internal/mfcc"
)

// This file holds the competitor protocol suite — schemes from the related
// work (PAPERS.md) registered as first-class protocols so the attacker,
// dynamics, audit and sweep machinery can measure their robustness next to
// the paper's DELTA/SIGMA variants. See docs/PROTOCOLS.md for the rules and
// attack surface of each scheme.

// NoAttackerError is the typed "not applicable" a Protocol's NewAttacker
// returns when the scheme has no inflated-subscription attack surface —
// e.g. abr-cf, whose single dynamic channel leaves nothing to inflate
// into. TryAddAttacker surfaces it; sweeps record it per point.
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

// EdgeAgent is a protocol's router-resident participant (see EdgeAssisted).
type EdgeAgent interface {
	Start()
	Stop()
}

// EdgeAssisted is implemented by protocols whose routers actively
// participate in congestion control (mfcc's fair-share advertisements).
// Experiment.Start calls NewEdgeAgent once per gatekept edge router, after
// the gatekeeper is installed, and starts every agent at time zero.
type EdgeAssisted interface {
	NewEdgeAgent(router *EdgeRouter, sessions []*Session) EdgeAgent
}

// FeedbackDriven is implemented by protocols whose senders consume
// receiver feedback reports (dsc, abr-cf). Experiment.Start enables
// hierarchical feedback consolidation at the routers for them, exactly as
// it does when cohorts exist, unless WithFeedbackConsolidation(false).
type FeedbackDriven interface {
	ConsumesFeedback() bool
}

// CohortCapable is implemented by protocols that opt out of (or explicitly
// into) cohort aggregation. Protocols without the method support cohorts:
// the fluid aggregate models FLID slot rules over layered data, which is
// the default behaviour. Variants whose receivers follow other rules —
// replicated group switching, share advertisements, a single dynamic
// channel — return false.
type CohortCapable interface {
	SupportsCohorts() bool
}

// AttackerCapable is implemented by protocols that declare up front
// whether NewAttacker can succeed, so sweeps and fuzzers can skip attacker
// wiring without attaching throwaway hosts. Protocols without the method
// have an attacker.
type AttackerCapable interface {
	HasAttacker() bool
}

// supportsCohorts resolves the CohortCapable default.
func supportsCohorts(p Protocol) bool {
	if c, ok := p.(CohortCapable); ok {
		return c.SupportsCohorts()
	}
	return true
}

// ProtocolSupportsCohorts reports whether the named registered protocol
// can aggregate receivers into cohorts (false for unknown names).
func ProtocolSupportsCohorts(name string) bool {
	p, ok := LookupProtocol(name)
	return ok && supportsCohorts(p)
}

// ProtocolHasAttacker reports whether the named registered protocol has an
// inflated-subscription attacker (false for unknown names).
func ProtocolHasAttacker(name string) bool {
	p, ok := LookupProtocol(name)
	if !ok {
		return false
	}
	if a, ok := p.(AttackerCapable); ok {
		return a.HasAttacker()
	}
	return true
}

func init() {
	RegisterProtocol(MFCCProtocol{})
	RegisterProtocol(DSCProtocol{})
	RegisterProtocol(ABRCFProtocol{})
}

// ---------------------------------------------------------------------------
// mfcc — network-assisted multi-flow congestion control (Thomas et al.).

// MFCCProtocol is the network-assisted competitor: edge routers advertise
// per-receiver fair shares each slot and receivers subscribe to the level
// the share affords. The data plane is the plain FLID-DL layered sender
// and membership is plain IGMP — advertisement without enforcement, so the
// classic inflation attack goes through untouched.
type MFCCProtocol struct{}

// Name implements Protocol.
func (MFCCProtocol) Name() string { return "mfcc" }

// Protected implements Protocol: mfcc brings no SIGMA control plane.
func (MFCCProtocol) Protected() bool { return false }

// DefaultSlot implements Protocol: FLID-DL's 500 ms slots.
func (MFCCProtocol) DefaultSlot() Time { return 500 * Millisecond }

// NewSender implements Protocol: the unmodified FLID-DL layered source.
func (MFCCProtocol) NewSender(host *Host, sess *Session, rng *RNG) SenderAgent {
	return flid.NewSender(host, sess, flid.DL, upgradePolicy(sess), rng, nil, announceRepeat)
}

// NewReceiver implements Protocol.
func (MFCCProtocol) NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent {
	return mfcc.NewReceiver(host, sess, edge)
}

// NewAttacker implements Protocol.
func (MFCCProtocol) NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error) {
	return flid.NewInflator(mfcc.NewReceiver(host, sess, edge)), nil
}

// NewEdgeAgent implements EdgeAssisted: the per-edge fair-share advertiser.
func (MFCCProtocol) NewEdgeAgent(router *EdgeRouter, sessions []*Session) EdgeAgent {
	return mfcc.NewEdgeAgent(router, sessions)
}

// SupportsCohorts implements CohortCapable: mfcc receivers move on share
// advertisements, which the layered fluid aggregate does not model.
func (MFCCProtocol) SupportsCohorts() bool { return false }

// ---------------------------------------------------------------------------
// dsc — dynamic source channels (Lucas et al.).

// DSCProtocol is the sender-adaptive competitor: receivers follow FLID
// subscription rules and report each slot's status upstream, routers
// consolidate the reports, and the source scales every layer's rate to the
// aggregate. Membership is plain IGMP; the attacker joins everything and
// silences its own feedback.
type DSCProtocol struct{}

// Name implements Protocol.
func (DSCProtocol) Name() string { return "dsc" }

// Protected implements Protocol: dsc brings no SIGMA control plane.
func (DSCProtocol) Protected() bool { return false }

// DefaultSlot implements Protocol.
func (DSCProtocol) DefaultSlot() Time { return 500 * Millisecond }

// NewSender implements Protocol.
func (DSCProtocol) NewSender(host *Host, sess *Session, rng *RNG) SenderAgent {
	return dsc.NewSender(host, sess, upgradePolicy(sess), rng)
}

// NewReceiver implements Protocol.
func (DSCProtocol) NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent {
	return dsc.NewReceiver(host, sess, edge)
}

// NewAttacker implements Protocol.
func (DSCProtocol) NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error) {
	return flid.NewInflator(dsc.NewReceiver(host, sess, edge)), nil
}

// ConsumesFeedback implements FeedbackDriven: the dsc source adapts to
// consolidated receiver reports.
func (DSCProtocol) ConsumesFeedback() bool { return true }

// ---------------------------------------------------------------------------
// abr-cf — ABR-style single channel with consolidated feedback (Fahmy et al.).

// ABRCFProtocol is the consolidated-feedback baseline: one dynamic channel
// whose rate the source adapts AIMD-style to consolidated receiver
// reports. It has no inflated-subscription attack surface — NewAttacker
// returns a typed *NoAttackerError, the shoot-out's structural negative
// result.
type ABRCFProtocol struct{}

// Name implements Protocol.
func (ABRCFProtocol) Name() string { return "abr-cf" }

// Protected implements Protocol: abr-cf brings no SIGMA control plane.
func (ABRCFProtocol) Protected() bool { return false }

// DefaultSlot implements Protocol.
func (ABRCFProtocol) DefaultSlot() Time { return 500 * Millisecond }

// NewSender implements Protocol.
func (ABRCFProtocol) NewSender(host *Host, sess *Session, rng *RNG) SenderAgent {
	return abrcf.NewSender(host, sess, rng)
}

// NewReceiver implements Protocol.
func (ABRCFProtocol) NewReceiver(host *Host, sess *Session, edge Addr) ReceiverAgent {
	return abrcf.NewReceiver(host, sess, edge)
}

// NewAttacker implements Protocol: structurally not applicable.
func (ABRCFProtocol) NewAttacker(host *Host, sess *Session, edge Addr, rng *RNG) (ReceiverAgent, error) {
	return nil, &NoAttackerError{
		Protocol: "abr-cf",
		Reason:   "every receiver already subscribes to the session's single dynamic channel; there is no higher layer to inflate into",
	}
}

// ConsumesFeedback implements FeedbackDriven.
func (ABRCFProtocol) ConsumesFeedback() bool { return true }

// SupportsCohorts implements CohortCapable: the fluid aggregate models
// layered subscription moves, which a single-channel session lacks.
func (ABRCFProtocol) SupportsCohorts() bool { return false }

// HasAttacker implements AttackerCapable.
func (ABRCFProtocol) HasAttacker() bool { return false }
