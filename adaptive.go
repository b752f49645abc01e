package deltasigma

import (
	"sort"

	"deltasigma/internal/dynamics"
)

// adaptiveHold is how long an adaptive attacker stays inflated after an
// instantaneous disturbance trigger: long enough to span the gatekeeper's
// grace slots plus a round of key announcements, so the burst lands while
// honest receivers and the protection are still re-converging.
const adaptiveHold = 3 * Second

// adaptiveFallbackOnset is when an adaptive attacker inflates if the
// experiment scripts no disturbances at all — with nothing to react to it
// degrades to an early classic onset rather than staying idle.
const adaptiveFallbackOnset = 1 * Second

// adaptiveAction is one half of a compiled disturbance window.
type adaptiveAction struct {
	At Time
	On bool
}

// adaptiveActions compiles a declared timeline into the disturbance
// windows an adaptive attacker strikes in. Sustained disturbances map to
// their own span (a churn window), instantaneous ones to a trigger plus
// adaptiveHold. A link flap triggers on each up instant — the exploitable
// moment is the recovery, when every honest receiver re-subscribes from
// scratch — which is also why LinkDown alone is not a trigger: inflating
// into a dead link wastes the burst. Attacker lifecycle events are not
// disturbances. Events are matched by their concrete (value) types, the
// form every facade constructor and the fuzzer produce.
func adaptiveActions(events []TimelineEvent) []adaptiveAction {
	var acts []adaptiveAction
	window := func(from, to Time) {
		if from < 0 {
			from = 0
		}
		if to <= from {
			return
		}
		acts = append(acts, adaptiveAction{At: from, On: true}, adaptiveAction{At: to, On: false})
	}
	trigger := func(at Time) { window(at, at+adaptiveHold) }
	for _, ev := range events {
		switch ev := ev.(type) {
		case PoissonChurn:
			window(ev.From, ev.To)
		case LinkFlap:
			// WithTimeline refused a period FlapInstants refuses, so New
			// failed; AdaptiveOnset reads such a flap as no disturbance.
			_, ups, _ := dynamics.FlapInstants(ev.Period, ev.From, ev.To)
			for _, up := range ups {
				trigger(up)
			}
		case LinkUp:
			trigger(ev.At)
		case LinkSetCapacity:
			trigger(ev.At)
		case LinkSetDelay:
			trigger(ev.At)
		case ReceiverJoin:
			trigger(ev.At)
		case ReceiverLeave:
			trigger(ev.At)
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	return acts
}

// AdaptiveOnset reports when a StrategyAdaptive attacker first inflates
// against the given timeline, and whether any event disturbs it: the
// earliest disturbance-window opening, or the idle fallback onset and
// false when nothing in the timeline is a disturbance. The fuzzer uses it
// to place measurement windows past every onset, adaptive ones included,
// and to give an undisturbed adaptive attacker something to react to.
func AdaptiveOnset(events []TimelineEvent) (onset Time, disturbed bool) {
	for _, a := range adaptiveActions(events) {
		if a.On {
			return a.At, true
		}
	}
	return adaptiveFallbackOnset, false
}

// scheduleAdaptive installs one adaptive attacker's compiled schedule on
// the experiment timeline: inflate when the first overlapping disturbance
// window opens, deflate when the last closes, counting depth so nested
// and chained windows produce one sustained burst instead of flapping the
// attack itself.
func (e *Experiment) scheduleAdaptive(r *Receiver) {
	depth := 0
	installed := false
	for _, a := range adaptiveActions(e.events) {
		if a.On {
			depth++
			if depth == 1 {
				e.timeline.Add(a.At, r.Inflate)
				installed = true
			}
		} else if depth--; depth == 0 {
			e.timeline.Add(a.At, r.Deflate)
		}
	}
	if !installed {
		e.timeline.Add(adaptiveFallbackOnset, r.Inflate)
	}
}
