package topo

import (
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/sim"
)

// DefaultDelay passed as an access delay selects the topology's default
// side delay; zero is a genuine zero-delay link.
const DefaultDelay sim.Time = -1

// Port is a receiver attachment point: the host plus the edge router that
// gatekeeps its local interface. Every SIGMA/IGMP control exchange of the
// receiver goes to Edge.Addr().
type Port struct {
	Host *netsim.Host
	Edge *mcast.Router
}

// Topology abstracts an assembled simulated network so experiments can run
// unchanged on any shape: the paper's dumbbell, a multi-bottleneck chain, a
// star with per-edge gatekeepers, or anything a caller builds. A topology
// owns the scheduler, RNG, network and multicast fabric; experiments attach
// hosts through it and never wire links themselves.
type Topology interface {
	// Scheduler returns the virtual clock everything runs on.
	Scheduler() *sim.Scheduler
	// Rand returns the topology's root RNG (fork it per agent).
	Rand() *sim.RNG
	// Network returns the underlying link-level network.
	Network() *netsim.Network
	// Multicast returns the group-distribution fabric.
	Multicast() *mcast.Fabric
	// AttachSource adds a sender host at the topology's ingress.
	AttachSource(name string) *netsim.Host
	// AttachReceiver adds a receiver host at the topology's default egress
	// with the given access-link delay (negative — DefaultDelay — selects
	// the topology default) and returns it together with its gatekeeping
	// edge router.
	AttachReceiver(name string, delay sim.Time) Port
	// AttachCohort adds an aggregated-receiver attachment point at the
	// topology's default egress: a private edge router reached over an
	// access link with the given delay (negative selects the topology
	// default), plus the cohort's host behind it. The private edge is
	// deliberately absent from Edges() — the cohort installs its own
	// gatekeeper, so graft/prune state on that edge belongs to the cohort
	// alone and bulk join/leave never disturbs exact receivers sharing the
	// upstream router.
	AttachCohort(name string, delay sim.Time) Port
	// Edges lists every router that gatekeeps at least one attached
	// receiver; experiments install one gatekeeper (SIGMA controller or
	// IGMP) per edge.
	Edges() []*mcast.Router
	// Bottlenecks lists the congested forward links, for utilization and
	// loss accounting.
	Bottlenecks() []*netsim.Link
	// Finish completes construction (routing tables); idempotent, called
	// once all hosts are attached.
	Finish()
}

// The §5.1 access links and buffers, the same on every shape.
const (
	sideRate  int64 = 10_000_000           // each access link's capacity
	sideDelay       = 10 * sim.Millisecond // each access link's default delay
	bdpFactor       = 2                    // queues hold two bandwidth-delay products
)

// bdpQueue sizes a queue as bdpFactor × rate × rtt (the §5.1 two-BDP rule),
// with a floor so access links never bottleneck on buffer space.
func bdpQueue(rate int64, rtt sim.Time, floor int) int {
	return max(int(bdpFactor*float64(rate)*rtt.Sec()/8), floor)
}

// cohortStubRate is the private-edge→cohort-host stub link rate: fast
// enough that the extra hop adds negligible serialization skew relative to
// a host attached directly to the shared edge.
const cohortStubRate int64 = 100_000_000_000
