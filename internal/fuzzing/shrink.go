package fuzzing

import (
	"regexp"
	"sort"
	"strings"
)

// errDigits normalizes numbers out of error text, so "session 9 outside
// 1..2" and "session 8 outside 1..1" — the same bug class before and
// after the shrinker renumbers indices — key identically.
var errDigits = regexp.MustCompile(`[0-9]+`)

// failureKey digests which way an outcome failed: the sorted set of
// violated rules, or the digit-normalized error text for build failures
// and panics. The shrinker only keeps candidates with the same key as the
// original failure, so a repro never silently morphs into a different bug
// class while being minimized.
func failureKey(o Outcome) string {
	if o.Err != "" {
		return "error:" + errDigits.ReplaceAllString(o.Err, "#")
	}
	seen := map[string]bool{}
	var rules []string
	for _, v := range o.Violations {
		if !seen[v.Rule] {
			seen[v.Rule] = true
			rules = append(rules, v.Rule)
		}
	}
	sort.Strings(rules)
	return strings.Join(rules, ",")
}

// DefaultShrinkBudget bounds how many candidate runs a shrink may spend.
const DefaultShrinkBudget = 200

// shrinkProtocols orders the registered variants from plainest to most
// elaborate: the swap pass walks it left to right and keeps the first
// protocol that still reproduces the failure, so a bug that is not
// specific to a protected or competitor scheme is reported on the bare
// FLID-DL baseline.
var shrinkProtocols = []string{
	"flid-dl", "abr-cf", "dsc", "mfcc",
	"flid-ds", "flid-ds-threshold", "flid-ds-replicated",
}

// Shrink greedily minimizes a failing spec with shrinkWalk, keeping a
// candidate only when it fails with the original failure key. It returns
// the smallest spec the walk reaches within budget (0 =
// DefaultShrinkBudget) and its outcome; a spec that does not fail is
// returned as-is.
func Shrink(spec Spec, budget int) (Spec, Outcome) {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	out := Run(spec, nil)
	if !out.Failed() {
		return spec, out
	}
	key := failureKey(out)
	return shrinkWalk(spec, out, budget, shrinkRule[Outcome]{
		eval:    func(sp Spec) Outcome { return Run(sp, nil) },
		accept:  func(o Outcome) bool { return o.Failed() && failureKey(o) == key },
		passes:  8,
		reshape: true,
	})
}

// shrinkRule sets one shrinker apart from the other: eval measures a
// candidate and accept decides whether it replaces the spec; passes caps
// the walk; reshape allows the protocol-swap and duration-halving moves;
// needOracle rejects a candidate that lost its oracle before it spends
// budget.
type shrinkRule[R any] struct {
	eval                func(Spec) R
	accept              func(R) bool
	passes              int
	reshape, needOracle bool
}

// shrinkWalk is the greedy walk both shrinkers share. Each pass tries, in
// order: dropping events (last first), receivers (attackers last),
// cohorts (halving one it cannot drop), TCP competitors and CBR traffic;
// swapping to a plainer protocol; dropping sessions; halving the duration.
// An accepted candidate replaces spec at once. The walk stops after a pass
// that accepted nothing or once budget candidate runs, counting the
// original, are spent. Candidates are memoised by spec fingerprint, since
// a pass often re-proposes one an earlier pass rejected; a repeat still
// spends budget, so memoising never changes where the walk ends.
//
// Every move keeps the spec valid: the removals renumber what referenced
// later receivers or sessions and then normalize the spec.
func shrinkWalk[R any](spec Spec, out R, budget int, rule shrinkRule[R]) (Spec, R) {
	runs, shrunk := 1, false
	memo := map[string]R{specFingerprint(spec): out}
	try := func(cand Spec) bool {
		if runs >= budget || (rule.needOracle && cand.Oracle == nil) {
			return false
		}
		runs++
		fp := specFingerprint(cand)
		r, ok := memo[fp]
		if !ok {
			r = rule.eval(cand)
			memo[fp] = r
		}
		if !rule.accept(r) {
			return false
		}
		spec, out, shrunk = cand, r, true
		return true
	}
	// edit tries a copy of spec changed by f.
	edit := func(f func(*Spec)) bool {
		cand := clone(spec)
		f(&cand)
		return try(cand)
	}

	for pass := 0; pass < rule.passes; pass++ {
		shrunk = false

		// Drop events, last to first (later events depend on earlier ones
		// more often than the reverse — an up after a down, a stop after an
		// onset).
		for i := len(spec.Events) - 1; i >= 0; i-- {
			edit(func(c *Spec) { c.Events = append(c.Events[:i], c.Events[i+1:]...) })
		}

		// Drop receivers (attackers last, so the scenario keeps its shape
		// for as long as possible).
		for si := range spec.Sessions {
			for ri := len(spec.Sessions[si].Receivers) - 1; ri >= 0; ri-- {
				try(removeReceiver(spec, si, ri))
			}
		}

		// Drop cohorts outright, and when a cohort is load-bearing, collapse
		// it to the smallest member count that still reproduces: repeated
		// halving walks 500000 → 1 in twenty candidates, so a population bug
		// that survives at one member is reported at one member.
		for si := range spec.Sessions {
			for ci := len(spec.Sessions[si].Cohorts) - 1; ci >= 0; ci-- {
				if try(removeCohort(spec, si, ci)) {
					continue
				}
				for spec.Sessions[si].Cohorts[ci] > 1 && edit(func(c *Spec) { c.Sessions[si].Cohorts[ci] /= 2 }) {
				}
			}
		}

		// Drop cross traffic.
		for spec.TCP > 0 && edit(func(c *Spec) { c.TCP-- }) {
		}
		if spec.CBRFraction > 0 {
			edit(func(c *Spec) { c.CBRFraction = 0 })
		}

		// Swap toward a plainer protocol that still reproduces. Candidates
		// that cannot host the spec — attackers on an attackerless scheme,
		// cohorts on a protocol with no layered aggregate — fail with a
		// different key and are rejected, so validity needs no special care.
		for _, name := range shrinkProtocols {
			if !rule.reshape || name == spec.Protocol {
				break // no swaps, or already at an equally plain or plainer variant
			}
			if edit(func(c *Spec) { c.Protocol = name }) {
				break
			}
		}

		// Drop whole sessions.
		for si := len(spec.Sessions) - 1; si >= 0 && len(spec.Sessions) > 1; si-- {
			try(removeSession(spec, si))
		}

		// Halve the duration (down to 2 s).
		if rule.reshape && spec.DurationSec > 4 {
			edit(func(c *Spec) { c.DurationSec = round3(c.DurationSec / 2) })
		}

		if !shrunk || runs >= budget {
			break
		}
	}
	return spec, out
}

// clone deep-copies a spec so candidate mutations never alias the original.
func clone(sp Spec) Spec {
	out := sp
	out.Topology.CapacitiesBps = append([]int64(nil), sp.Topology.CapacitiesBps...)
	out.Sessions = make([]SessionSpec, len(sp.Sessions))
	for i, ss := range sp.Sessions {
		out.Sessions[i].Receivers = append([]ReceiverSpec(nil), ss.Receivers...)
		out.Sessions[i].Cohorts = append([]int(nil), ss.Cohorts...)
	}
	out.Events = append([]EventSpec(nil), sp.Events...)
	if sp.Oracle != nil {
		o := *sp.Oracle
		out.Oracle = &o
	}
	return out
}

// removeReceiver deletes receiver ri (0-based) from session si (0-based):
// events naming it stop resolving, references to later receivers of the
// session shift down, and normalize drops what the deletion invalidated.
func removeReceiver(sp Spec, si, ri int) Spec {
	cand := clone(sp)
	ss := &cand.Sessions[si]
	ss.Receivers = append(ss.Receivers[:ri], ss.Receivers[ri+1:]...)
	for i := range cand.Events {
		if ev := &cand.Events[i]; ev.Session == si+1 {
			ev.Receiver = renumber(ev.Receiver, ri+1)
		}
	}
	cand.normalize()
	return cand
}

// removeCohort deletes cohort ci (0-based) from session si (0-based), and
// normalize drops what lost its last well-behaved members or cohort.
func removeCohort(sp Spec, si, ci int) Spec {
	cand := clone(sp)
	ss := &cand.Sessions[si]
	ss.Cohorts = append(ss.Cohorts[:ci], ss.Cohorts[ci+1:]...)
	cand.normalize()
	return cand
}

// removeSession deletes session si (0-based): references to it stop
// resolving, references to later sessions shift down, and normalize drops
// what the deletion invalidated.
func removeSession(sp Spec, si int) Spec {
	cand := clone(sp)
	cand.Sessions = append(cand.Sessions[:si], cand.Sessions[si+1:]...)
	for i := range cand.Events {
		cand.Events[i].Session = renumber(cand.Events[i].Session, si+1)
	}
	if cand.Oracle != nil {
		cand.Oracle.Session = renumber(cand.Oracle.Session, si+1)
	}
	cand.normalize()
	return cand
}

// renumber maps a 1-based index past the deletion of index gone: later
// indices shift down, gone itself becomes -1, which resolves to nothing,
// and 0 (an event's "every" or "none") stays.
func renumber(idx, gone int) int {
	switch {
	case idx == gone:
		return -1
	case idx > gone:
		return idx - 1
	}
	return idx
}
