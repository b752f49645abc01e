// Package campaign is the deterministic parallel-execution layer under
// deltasigma.Sweep: a mixed-radix Grid that enumerates the cartesian
// product of sweep axes, and a bounded worker pool (Run) that fans
// independent jobs across goroutines while results stay addressed by grid
// index — so campaign output is byte-identical whatever the worker count.
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

// Grid indexes the cartesian product of axes by length. Index 0 is all
// first values; the first axis varies slowest (row-major), so enumeration
// order matches nested for-loops over the axes in declaration order.
type Grid struct {
	dims []int
	size int
}

// NewGrid builds a grid over axes of the given lengths. Axes of length
// zero or less are rejected: a sweep normalizes empty axes to a single
// default value before building its grid.
func NewGrid(dims ...int) (Grid, error) {
	size := 1
	for i, d := range dims {
		if d <= 0 {
			return Grid{}, fmt.Errorf("campaign: axis %d has non-positive length %d", i, d)
		}
		if size > 1<<30/d {
			return Grid{}, fmt.Errorf("campaign: grid larger than 2^30 points")
		}
		size *= d
	}
	return Grid{dims: append([]int(nil), dims...), size: size}, nil
}

// Size returns the number of grid points.
func (g Grid) Size() int { return g.size }

// Axes returns the number of axes.
func (g Grid) Axes() int { return len(g.dims) }

// Coords decodes a point index into one coordinate per axis.
func (g Grid) Coords(index int) []int {
	if index < 0 || index >= g.size {
		panic(fmt.Sprintf("campaign: index %d outside grid of %d points", index, g.size))
	}
	coords := make([]int, len(g.dims))
	for i := len(g.dims) - 1; i >= 0; i-- {
		coords[i] = index % g.dims[i]
		index /= g.dims[i]
	}
	return coords
}

// Index encodes coordinates back into a point index (the inverse of
// Coords).
func (g Grid) Index(coords []int) int {
	if len(coords) != len(g.dims) {
		panic(fmt.Sprintf("campaign: %d coordinates for %d axes", len(coords), len(g.dims)))
	}
	index := 0
	for i, c := range coords {
		if c < 0 || c >= g.dims[i] {
			panic(fmt.Sprintf("campaign: coordinate %d out of range for axis %d (length %d)", c, i, g.dims[i]))
		}
		index = index*g.dims[i] + c
	}
	return index
}

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
