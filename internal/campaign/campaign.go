// Package campaign is the deterministic parallel-execution layer under
// deltasigma.Sweep, the figure scenarios, the fuzzer and the benchmark: a
// bounded worker pool (Run) that fans independent jobs across goroutines
// while results stay addressed by job index — so campaign output is
// byte-identical whatever the worker count.
//
// Nothing here knows about experiments; the package is plain concurrency
// machinery so it can be tested exhaustively without simulating a packet.
package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes 0: one per
// core the runtime may use (GOMAXPROCS), so a pinned process or a
// container CPU limit is honoured.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// EffectiveWorkers resolves the worker count Run will actually use for n
// jobs: callers that keep per-worker state (packet pools, scratch arenas)
// size their state slice with it.
func EffectiveWorkers(n, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes jobs 0..n-1 across at most `workers` goroutines (0 means
// DefaultWorkers, and the pool never exceeds n). Jobs pull indices from a
// shared atomic counter, so scheduling is dynamic but the caller's view is
// not: the returned slice holds job i's error at position i regardless of
// which worker ran it or when. A panicking job is recovered into its error
// slot and the pool keeps draining — one failing grid point can never
// deadlock or abort a campaign.
//
// Each invocation of job receives the index of the worker goroutine running
// it, in [0, EffectiveWorkers(n, workers)). A worker runs its jobs strictly
// sequentially, so per-worker state — a reusable packet pool, a scratch
// buffer — is safe to index by worker without locking; results must never
// depend on it, since which jobs land on which worker is scheduling-
// dependent.
func Run(n, workers int, job func(worker, index int) error) []error {
	errs := make([]error, n)
	if n <= 0 {
		return errs
	}
	workers = EffectiveWorkers(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = protect(job, w, i)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// protect runs one job, converting a panic into an error so the worker
// survives.
func protect(job func(int, int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: job %d panicked: %v", i, r)
		}
	}()
	return job(w, i)
}
