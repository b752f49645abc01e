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
