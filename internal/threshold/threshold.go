// Package threshold implements a loss-rate-threshold layered multicast
// congestion control protocol in the RLM/MLDA/WEBRC family (§3.1.2
// "Congested state"): a receiver of level g is congested only when its loss
// rate at the level exceeds the protocol's per-level threshold. Protection
// comes from the Shamir-sharing DELTA instantiation — the level key
// reconstructs exactly when the receiver's loss stayed within tolerance —
// plus SIGMA at the edge. Sender and receiver are the shared kit (the keyed
// source with flid.ShamirKeying, the flid key-receiver kernel) with the
// Shamir pieces plugged in; an attacker is flid.NewKeyAttacker over the
// receiver.
package threshold

import (
	"deltasigma/internal/core"
	"deltasigma/internal/delta"
	"deltasigma/internal/flid"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
)

// RLMThresholds returns the flat 25% per-level tolerance RLM defaults to.
func RLMThresholds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.25
	}
	return out
}

// GradedThresholds returns WEBRC-style tolerances that tighten with the
// level: from 25% at level 1 down to 5% at level n.
func GradedThresholds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if n == 1 {
			out[i] = 0.25
			continue
		}
		out[i] = 0.25 - 0.20*float64(i)/float64(n-1)
	}
	return out
}

// NewReceiver builds a well-behaved threshold receiver: the key-receiver
// kernel accumulating Shamir shares. thresh must match the sender's.
func NewReceiver(host *netsim.Host, sess *core.Session, thresh []float64, routerAddr packet.Addr) *flid.DSReceiver {
	most := sess.MaxPackets()
	return flid.NewDSReceiver(host, sess, routerAddr, func(n int) flid.Accumulator {
		acc := delta.NewThresholdReceiver(n, thresh)
		acc.Reserve(most)
		return acc
	})
}
