package deltasigma

import (
	"fmt"

	"deltasigma/internal/flid"
	"deltasigma/internal/sigma"
)

// AttackerStrategy selects how an attacker added through
// AddAttacker(WithStrategy(...)) behaves. Every strategy rides on the
// protocol's inflated-subscription attacker; the non-classic ones layer a
// capability the paper's threat model (§2.2) does not grant a lone
// receiver — see docs/ADVERSARIES.md for the catalog.
type AttackerStrategy string

const (
	// StrategyClassic is the paper's §4.2 attacker: plain-IGMP inflation
	// plus independent random key guessing. AddAttacker is shorthand for
	// this strategy.
	StrategyClassic AttackerStrategy = "classic"
	// StrategyColluding enrolls the attacker in a per-session cohort that
	// shares decoded keys and deduplicates guesses (see sigma.Collusion).
	StrategyColluding AttackerStrategy = "colluding"
	// StrategyAdaptive times inflation bursts to the experiment's
	// scripted disturbances — churn windows, link flaps, capacity and
	// membership changes — instead of attacking continuously.
	StrategyAdaptive AttackerStrategy = "adaptive"
	// StrategyForging spoofs control-plane traffic: per-slot forged SIGMA
	// unsubscribes that evict co-located honest receivers' grants, plus
	// bogus consolidated feedback toward the source (sigma.ForgeAttack).
	StrategyForging AttackerStrategy = "forging"
)

// valid reports whether the strategy is one of the defined constants.
func (st AttackerStrategy) valid() bool {
	switch st {
	case StrategyClassic, StrategyColluding, StrategyAdaptive, StrategyForging:
		return true
	}
	return false
}

// attackerStrategies lists the defined strategy names in catalog order,
// for validation messages.
func attackerStrategies() []AttackerStrategy {
	return []AttackerStrategy{StrategyClassic, StrategyColluding, StrategyAdaptive, StrategyForging}
}

// UnknownStrategyError is what TryAddAttacker returns for a strategy name
// outside the four defined ones — typically a hand-edited spec or repro
// file.
type UnknownStrategyError struct {
	Strategy AttackerStrategy
}

// Error implements error.
func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("deltasigma: unknown attacker strategy %q (want one of %v)", e.Strategy, attackerStrategies())
}

// AttackerOption configures one AddAttacker / TryAddAttacker call.
type AttackerOption func(*attackerSpec)

type attackerSpec struct {
	port     Port // zero: the topology's default egress
	strategy AttackerStrategy
}

// AtPort attaches the attacker at an explicit port — obtained from a
// topology's placement methods — instead of the default egress.
func AtPort(p Port) AttackerOption { return func(a *attackerSpec) { a.port = p } }

// WithStrategy selects the attacker's behavior; without it (or with an
// empty name) the attacker is classic.
func WithStrategy(st AttackerStrategy) AttackerOption {
	return func(a *attackerSpec) { a.strategy = st }
}

// AddAttacker attaches an inflated-subscription attacker — by default a
// classic one at the topology's default egress; see AtPort and
// WithStrategy. It panics where TryAddAttacker errors.
func (s *ExperimentSession) AddAttacker(opts ...AttackerOption) *Receiver {
	r, err := s.TryAddAttacker(opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// TryAddAttacker is AddAttacker returning a typed error instead of
// panicking: *UnknownStrategyError, or *NoAttackerError for a protocol
// without an attacker — a registered one (abr-cf) is refused before any
// receiver host is attached, a WithProtocolImpl row whose receiver can be
// turned into none after.
//
// On unprotected variants (no SIGMA control plane to collude against or
// forge into) colluding and forging degrade to the classic inflator —
// which already wins outright there; adaptive keeps its timing behavior
// everywhere.
//
// On an experiment built with WithShards(n ≥ 2) every non-classic strategy
// is refused: collusion taps, forged control and adaptive timeline entries
// touch cross-shard state.
func (s *ExperimentSession) TryAddAttacker(opts ...AttackerOption) (*Receiver, error) {
	s.exp.mustNotHaveStarted("AddAttacker")
	var spec attackerSpec
	for _, opt := range opts {
		opt(&spec)
	}
	st, port := spec.strategy, spec.port
	if st != "" && !st.valid() {
		return nil, &UnknownStrategyError{Strategy: st}
	}
	if st != "" && st != StrategyClassic && s.exp.shardGroup != nil {
		call := fmt.Sprintf("TryAddAttacker(WithStrategy(%q))", st)
		return nil, s.exp.shardRefusal(call, "the strategy mutates cross-shard state")
	}
	p := &s.exp.Protocol
	if p.noAttacker != "" {
		return nil, &NoAttackerError{p.Name, p.noAttacker}
	}
	if port.Host == nil {
		port = s.exp.Topo.AttachReceiver("", DefaultDelay)
	}
	// Migration must precede agent construction, as for AddReceiverAt.
	s.exp.maybeMigrate(port.Host)
	atk, err := p.attacker(port.Host, s.Sess, port.Edge.Addr(), s.exp.Topo.Rand().Fork())
	if err != nil {
		return nil, err
	}
	r := s.wrap(atk, port.Host, port.Edge.Addr())
	r.atk = atk
	r.strategy = effectiveStrategy(*p, st) // empty for plain attackers
	switch r.strategy {
	case StrategyColluding:
		// Every built-in protected row's attacker is a KeyAttacker; a
		// WithProtocolImpl row whose protected receiver joins by plain IGMP
		// gets an Inflator, which attacks classically.
		ka, ok := r.agent.(*flid.KeyAttacker)
		if !ok {
			r.strategy = StrategyClassic
			return r, nil
		}
		if s.collusion == nil {
			s.collusion = sigma.NewCollusion()
		}
		s.collusion.Join(ka.GuessAttack)
	case StrategyForging:
		r.forge = sigma.NewForgeAttack(r.host, s.Sess, r.edge, s.src.Addr())
	}
	return r, nil
}

// effectiveStrategy is the strategy an attacker asking for st runs under p:
// an unprotected variant has no SIGMA control plane to collude against or
// forge into, so colluding and forging degrade to classic there. Sweep
// keys its grid points with it, so merged points stay the ones
// TryAddAttacker builds identically.
func effectiveStrategy(p Protocol, st AttackerStrategy) AttackerStrategy {
	if !p.Protected && (st == StrategyColluding || st == StrategyForging) {
		return StrategyClassic
	}
	return st
}

// Strategy reports the attacker strategy this receiver runs (empty for
// well-behaved receivers and attackers added without WithStrategy; a degraded
// strategy reports what actually runs, i.e. classic).
func (r *Receiver) Strategy() AttackerStrategy { return r.strategy }

// Inflated reports whether this receiver's inflation attack is currently
// active (always false for well-behaved receivers). Adaptive attackers
// toggle this as their compiled disturbance windows open and close.
func (r *Receiver) Inflated() bool { return r.atk != nil && r.atk.Inflated() }

// Forge exposes the forging engine of a StrategyForging attacker (nil
// otherwise) for its spoofed-message counters.
func (r *Receiver) Forge() *sigma.ForgeAttack { return r.forge }

// Collusion returns the session's shared attacker key pool, non-nil once
// any StrategyColluding attacker has been added.
func (s *ExperimentSession) Collusion() *sigma.Collusion { return s.collusion }

// victimAddrs lists the honest receivers a forging attacker can evict:
// same session, attached through the same edge gatekeeper (the controller
// only accepts control traffic whose claimed source is local to it), in
// attach order for determinism.
func (s *ExperimentSession) victimAddrs(atk *Receiver) []Addr {
	var out []Addr
	for _, r := range s.Receivers {
		if r == atk || r.Attacker() || r.host == nil || r.edge != atk.edge {
			continue
		}
		out = append(out, r.host.Addr())
	}
	return out
}
