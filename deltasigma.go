// Package deltasigma is a from-scratch reproduction of "Robustness to
// Inflated Subscription in Multicast Congestion Control" (Gorinsky, Jain,
// Vin, Zhang — SIGCOMM 2003 / UT Austin TR2003-09): DELTA, the in-band
// distribution of dynamic group keys to congestion-eligible receivers, and
// SIGMA, the generic key-checking group-management architecture at edge
// routers, together with the FLID-DL/FLID-DS protocols, the network
// simulator they run on, and the full evaluation harness.
//
// This root package is the public facade: a composable experiment builder
// over the internal machinery (one package per subsystem, see DESIGN.md).
// Experiments are assembled from functional options:
//
//	exp, err := deltasigma.New(
//		deltasigma.WithDumbbell(1_000_000),
//		deltasigma.WithProtocol("flid-ds"),
//		deltasigma.WithSeed(7),
//	)
//	sess := exp.AddSession(2)   // one multicast session, two receivers
//	exp.AddTCP(0)               // a TCP Reno competitor
//	res := exp.Run(60 * deltasigma.Second)
//
// One value, TopologySpec, names the network: the paper's dumbbell, a
// multi-bottleneck chain or a star with one SIGMA gatekeeper per edge,
// with its hop capacities and hop delay. WithTopology takes it, and
// WithDumbbell is its shorthand for the paper's shape. All three kinds are
// one Tree type: a dumbbell is a one-hop chain, and a star places the same
// hops in parallel.
// Protocol variants are rows of one Protocol table, looked up by name
// (WithProtocol): "flid-dl", "flid-ds", "flid-ds-replicated" and
// "flid-ds-threshold" are built in alongside the competitor suite "mfcc",
// "dsc" and "abr-cf" (see docs/PROTOCOLS.md), and WithProtocolImpl runs
// any other row.
// Run returns a typed Result carrying per-receiver throughput series,
// bottleneck utilization and loss counts. The examples/ directory shows
// the API in use.
package deltasigma

import (
	"deltasigma/internal/core"
	"deltasigma/internal/mcast"
	"deltasigma/internal/netsim"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
	"deltasigma/internal/stats"
	"deltasigma/internal/topo"
)

// Re-exported building blocks.
type (
	// Session describes a multi-group multicast session (identity, group
	// address block, rate schedule, slot clock).
	Session = core.Session
	// RateSchedule is the multiplicative cumulative layering of §5.1.
	RateSchedule = core.RateSchedule
	// Time is a virtual timestamp/duration in nanoseconds.
	Time = sim.Time
	// RNG is the deterministic random source experiments fork from.
	RNG = sim.RNG
	// Meter accumulates delivered bytes into time bins.
	Meter = stats.Meter
	// Point is one bin of a throughput time series.
	Point = stats.Point
	// Host is an end system of the simulated network.
	Host = netsim.Host
	// Link is a unidirectional rate/delay pipe with a drop-tail queue.
	Link = netsim.Link
	// Addr is a network (host or group) address.
	Addr = packet.Addr
	// EdgeRouter is a gatekept multicast edge router — what a protocol's
	// Protocol.EdgeAgent hangs its router-resident agent on.
	EdgeRouter = mcast.Router
	// PacketPool recycles packet envelopes across experiments, and the
	// scheduler memory a closed experiment parks in it (Experiment.Close);
	// see WithPacketPool. One pool must never serve concurrent experiments.
	PacketPool = packet.Pool

	// Port couples a receiver host with its gatekeeping edge router.
	Port = topo.Port
	// Tree is the network every experiment runs on: an ingress router and
	// one bottleneck hop per capacity, the hops in series (a dumbbell or a
	// chain) or in parallel (a star). Its AttachReceiverAt places a
	// receiver behind a chosen router.
	Tree = topo.Tree
)

// Virtual time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultDelay passed as a receiver access delay selects the topology's
// default side delay; zero is a genuine zero-delay link.
const DefaultDelay = topo.DefaultDelay

// PaperSchedule returns the §5.1 rate schedule: 10 groups from 100 Kbps,
// factor 1.5.
func PaperSchedule() RateSchedule { return core.PaperSchedule() }
