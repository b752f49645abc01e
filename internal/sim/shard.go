package sim

// This file implements conservative time-window parallel simulation across
// a group of schedulers ("shards"). The model is classic CMB-style
// lookahead PDES specialized to this engine's determinism contract:
//
//   - The topology is partitioned so that every piece of mutable state
//     belongs to exactly one shard, and shards influence each other only
//     through CrossEdges — directed channels with a positive minimum
//     latency (the lookahead): an effect posted by the source shard at
//     virtual time t cannot take effect in the destination shard before
//     t + lookahead.
//
//   - Execution proceeds in windows. Each round the coordinator finds the
//     earliest pending event time `next` across all shards, sets the window
//     end to next + min-lookahead, and lets every shard run its local
//     events strictly before the window end in parallel. Any cross-shard
//     effect generated inside the window lands at or after the window end,
//     so no shard can miss an incoming effect: the windows are provably
//     causally safe, with no rollbacks and no speculation.
//
//   - At the window barrier the coordinator drains every edge's posted
//     envelopes and files them into the destination schedulers in
//     (time, akey, edge, post-order) order. The akey carried by an envelope
//     is the virtual instant the source shard created the effect — exactly
//     the reservation instant a single serial scheduler would have used as
//     its tie-break (see the event type) — so a sharded run fires events in
//     the same order a serial run over the merged workload would have,
//     independent of the number of shards or of goroutine interleaving.
//
// Every scheduling decision is taken either inside one shard (single
// goroutine) or by the coordinator between windows (all shards quiescent),
// so the parallel execution is deterministic by construction: the Parallel
// flag changes wall-clock time, never results.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ShardStats describes one shard's share of a ShardGroup run.
type ShardStats struct {
	// Events is the number of events the shard's scheduler fired.
	Events uint64
	// Windows is the number of window rounds the group executed (identical
	// across shards, duplicated here for self-contained reporting).
	Windows uint64
	// BarrierWait is wall-clock time the shard spent finished-but-waiting
	// for the slowest shard of each round, an imbalance measure.
	BarrierWait time.Duration
	// MailboxMax is the high-water mark of envelopes drained into this
	// shard at a single barrier.
	MailboxMax int
}

// envelope is one posted cross-shard effect.
type envelope struct {
	at   Time
	akey Time // virtual instant the source shard posted the effect
	post uint64
	edge int
	fn   func()
}

// CrossEdge is a directed mailbox between two shards with a minimum
// latency. Post may only be called from the source shard's events (or from
// the coordinator between windows); the group drains the buffer at every
// window barrier.
type CrossEdge struct {
	group     *ShardGroup
	id        int
	from, to  int
	lookahead Time
	buf       []envelope
	nextPost  uint64
}

// Post files fn to run in the destination shard at virtual time at. The
// conservative contract requires at >= post-instant + lookahead; Post
// panics otherwise, because a violation would silently break the window
// safety argument.
func (e *CrossEdge) Post(at Time, fn func()) {
	now := e.group.shards[e.from].Now()
	if at < now+e.lookahead {
		panic(fmt.Sprintf("sim: cross-edge post at %v violates lookahead %v from now %v", at, e.lookahead, now))
	}
	e.buf = append(e.buf, envelope{at: at, akey: now, post: e.nextPost, edge: e.id, fn: fn})
	e.nextPost++
}

// ShardGroup coordinates a set of schedulers executing one partitioned
// simulation in conservative time windows.
type ShardGroup struct {
	shards []*Scheduler
	edges  []*CrossEdge
	// Parallel selects goroutine-per-shard execution inside windows. Off,
	// the coordinator runs each shard's window on the calling goroutine —
	// results are identical either way; only wall-clock time differs.
	Parallel bool

	stats    []ShardStats
	minLook  Time
	barriers []func()

	// scratch for barrier drains, reused across rounds: one envelope slice
	// per destination shard.
	perDst [][]envelope

	// worker machinery, built lazily on the first parallel run.
	workers  bool
	start    []chan Time
	done     []chan struct{}
	finished []time.Time
}

// NewShardGroup returns a group of n fresh schedulers. n must be >= 1.
func NewShardGroup(n int) *ShardGroup {
	return NewShardGroupFrom(NewScheduler(), n)
}

// NewShardGroupFrom returns a group whose shard 0 is the given (possibly
// already populated) scheduler — how an experiment wired serially adopts
// sharded execution without rebuilding: existing agents stay on shard 0 and
// migrated ones move to the fresh shards 1..n-1.
func NewShardGroupFrom(s0 *Scheduler, n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	g := &ShardGroup{shards: make([]*Scheduler, n), stats: make([]ShardStats, n)}
	g.shards[0] = s0
	for i := 1; i < n; i++ {
		g.shards[i] = NewScheduler()
	}
	return g
}

// AtBarrier registers fn to run at every window barrier, when all shards
// are quiescent, before posted envelopes are filed into their destinations.
// This is the safe point for cross-shard resource hand-off (the network
// layer copies packets between shard-local pools here).
func (g *ShardGroup) AtBarrier(fn func()) {
	g.barriers = append(g.barriers, fn)
}

// Shards reports the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's scheduler.
func (g *ShardGroup) Shard(i int) *Scheduler { return g.shards[i] }

// Stats returns a copy of the per-shard statistics of the last (or
// current) run.
func (g *ShardGroup) Stats() []ShardStats {
	out := make([]ShardStats, len(g.stats))
	copy(out, g.stats)
	return out
}

// AddEdge declares that shard `from` influences shard `to` with minimum
// latency lookahead, which must be positive — a zero-lookahead cut would
// force zero-width windows.
func (g *ShardGroup) AddEdge(from, to int, lookahead Time) *CrossEdge {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: cross-edge lookahead %v must be positive", lookahead))
	}
	if from == to {
		panic("sim: cross-edge endpoints must differ")
	}
	e := &CrossEdge{group: g, id: len(g.edges), from: from, to: to, lookahead: lookahead}
	g.edges = append(g.edges, e)
	if g.minLook == 0 || lookahead < g.minLook {
		g.minLook = lookahead
	}
	return e
}

// nextPending returns the earliest pending event time across all shards.
func (g *ShardGroup) nextPending() (Time, bool) {
	var min Time
	found := false
	for _, s := range g.shards {
		if t, ok := s.NextAt(); ok && (!found || t < min) {
			min = t
			found = true
		}
	}
	return min, found
}

// RunUntil executes the partitioned simulation until every event with
// timestamp <= limit has fired, matching Scheduler.RunUntil semantics
// shard-locally. Windows never extend past limit, and each shard's clock
// ends at limit exactly as a serial RunUntil would leave it.
func (g *ShardGroup) RunUntil(limit Time) {
	if len(g.shards) == 1 && len(g.edges) == 0 {
		g.shards[0].RunUntil(limit)
		g.stats[0].Events = g.shards[0].Fired()
		return
	}
	if g.minLook <= 0 {
		panic("sim: multi-shard group has no cross edges; lookahead unknown")
	}
	// Workers live for this call only: leaking parked goroutines across
	// many short experiments (sweeps, benchmarks) would accumulate forever.
	defer g.Close()
	for {
		next, ok := g.nextPending()
		if !ok || next > limit {
			break
		}
		// The window [next, wend) is causally closed: effects generated
		// inside it arrive >= next + minLook == wend.
		wend := next + g.minLook
		if wend > limit {
			// Final stretch: run through limit inclusive, exactly like a
			// serial RunUntil. Envelopes generated here land after limit.
			g.runWindow(limit)
			g.drainEdges()
			continue
		}
		// Events at exactly wend may be affected by deliveries arriving at
		// wend, so the window is half-open: run through wend-1 inclusive.
		g.runWindow(wend - 1)
		g.drainEdges()
	}
	// Leave every shard clock at limit (serial RunUntil contract) and fold
	// final event counts into the stats.
	for i, s := range g.shards {
		s.RunUntil(limit)
		g.stats[i].Events = s.Fired()
	}
}

// runWindow runs every shard until `until` (inclusive), in parallel when
// configured, and increments the per-shard window counters.
func (g *ShardGroup) runWindow(until Time) {
	if g.Parallel && len(g.shards) > 1 {
		g.ensureWorkers()
		for i := 1; i < len(g.shards); i++ {
			g.start[i] <- until
		}
		g.shards[0].RunUntil(until)
		g.finished[0] = time.Now()
		for i := 1; i < len(g.shards); i++ {
			<-g.done[i]
		}
		end := time.Now()
		for i := range g.shards {
			if w := end.Sub(g.finished[i]); w > 0 {
				g.stats[i].BarrierWait += w
			}
		}
	} else {
		for _, s := range g.shards {
			s.RunUntil(until)
		}
	}
	for i := range g.stats {
		g.stats[i].Windows++
	}
}

// ensureWorkers starts one goroutine per shard beyond shard 0 (which runs
// on the coordinator's goroutine). Workers live until Close.
func (g *ShardGroup) ensureWorkers() {
	if g.workers {
		return
	}
	g.workers = true
	g.start = make([]chan Time, len(g.shards))
	g.done = make([]chan struct{}, len(g.shards))
	g.finished = make([]time.Time, len(g.shards))
	for i := 1; i < len(g.shards); i++ {
		i := i
		g.start[i] = make(chan Time)
		g.done[i] = make(chan struct{})
		go func() {
			for until := range g.start[i] {
				g.shards[i].RunUntil(until)
				g.finished[i] = time.Now()
				g.done[i] <- struct{}{}
			}
		}()
	}
}

// Close stops the worker goroutines. The group remains usable in
// non-parallel mode; a later parallel run restarts the workers.
func (g *ShardGroup) Close() {
	if !g.workers {
		return
	}
	for i := 1; i < len(g.shards); i++ {
		close(g.start[i])
	}
	g.workers = false
}

// drainEdges files every posted envelope into its destination scheduler.
// All shards are quiescent here, so this is the safe point for cross-shard
// hand-off. Per destination, envelopes are filed in (at, akey, edge, post)
// order; the destination scheduler assigns its local seqs in that order, so
// together with the carried akey the firing order is independent of shard
// count and goroutine scheduling. Envelopes bound for different shards
// never interact — seq assignment is per-scheduler — so destinations are
// independent and, in parallel mode, each destination's sort-and-file runs
// on its own goroutine: with hundreds of envelopes per barrier the sort is
// the coordinator's dominant cost, and it parallelizes perfectly.
func (g *ShardGroup) drainEdges() {
	for _, fn := range g.barriers {
		fn()
	}
	if g.perDst == nil {
		g.perDst = make([][]envelope, len(g.shards))
	}
	total := 0
	for _, e := range g.edges {
		if len(e.buf) == 0 {
			continue
		}
		g.perDst[e.to] = append(g.perDst[e.to], e.buf...)
		total += len(e.buf)
		for i := range e.buf {
			e.buf[i].fn = nil
		}
		e.buf = e.buf[:0]
	}
	if total == 0 {
		return
	}
	if g.Parallel && len(g.shards) > 1 {
		var wg sync.WaitGroup
		for dst := range g.perDst {
			if len(g.perDst[dst]) == 0 {
				continue
			}
			wg.Add(1)
			go func(dst int) {
				defer wg.Done()
				g.fileInto(dst)
			}(dst)
		}
		wg.Wait()
	} else {
		for dst := range g.perDst {
			if len(g.perDst[dst]) > 0 {
				g.fileInto(dst)
			}
		}
	}
}

// fileInto sorts destination dst's drained envelopes and schedules them on
// its shard, clearing the scratch slice for the next round. Only state
// owned by dst is touched, so concurrent calls for distinct destinations
// are independent.
func (g *ShardGroup) fileInto(dst int) {
	all := g.perDst[dst]
	// No two envelopes compare equal (post is unique per edge), so this
	// total order makes the sort's stability irrelevant: the merged order
	// is the one a serial scheduler would have used, whatever the sort
	// algorithm. Each edge's buffer arrives pre-sorted (constant link delay
	// over a monotone source clock), a run pattern pdqsort detects cheaply.
	slices.SortFunc(all, func(a, b envelope) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.akey, b.akey); c != 0 {
			return c
		}
		if c := cmp.Compare(a.edge, b.edge); c != 0 {
			return c
		}
		return cmp.Compare(a.post, b.post)
	})
	sched := g.shards[dst]
	for i := range all {
		sched.ScheduleKeyed(all[i].at, all[i].akey, all[i].fn)
		all[i].fn = nil
	}
	if len(all) > g.stats[dst].MailboxMax {
		g.stats[dst].MailboxMax = len(all)
	}
	g.perDst[dst] = all[:0]
}
