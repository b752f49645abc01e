package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestGridEnumeratesRowMajor(t *testing.T) {
	g, err := NewGrid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 || g.Axes() != 2 {
		t.Fatalf("Size = %d, Axes = %d", g.Size(), g.Axes())
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for i, w := range want {
		got := g.Coords(i)
		if len(got) != 2 || got[0] != w[0] || got[1] != w[1] {
			t.Fatalf("Coords(%d) = %v, want %v", i, got, w)
		}
		if back := g.Index(got); back != i {
			t.Fatalf("Index(Coords(%d)) = %d", i, back)
		}
	}
}

func TestGridRoundTripsManyAxes(t *testing.T) {
	g, err := NewGrid(3, 1, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3*1*4*2*5 {
		t.Fatalf("Size = %d", g.Size())
	}
	seen := make(map[string]bool)
	for i := 0; i < g.Size(); i++ {
		c := g.Coords(i)
		key := fmt.Sprint(c)
		if seen[key] {
			t.Fatalf("duplicate coords %v", c)
		}
		seen[key] = true
		if g.Index(c) != i {
			t.Fatalf("round trip failed at %d: %v", i, c)
		}
	}
}

func TestGridRejectsEmptyAxis(t *testing.T) {
	if _, err := NewGrid(2, 0, 3); err == nil {
		t.Fatal("NewGrid accepted a zero-length axis")
	}
	if _, err := NewGrid(-1); err == nil {
		t.Fatal("NewGrid accepted a negative axis")
	}
}

func TestGridZeroAxesIsSinglePoint(t *testing.T) {
	g, err := NewGrid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Fatalf("empty product should have one point, got %d", g.Size())
	}
	if len(g.Coords(0)) != 0 {
		t.Fatalf("Coords(0) = %v, want empty", g.Coords(0))
	}
}

func TestRunExecutesEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		counts := make([]atomic.Int64, n)
		errs := Run(n, workers, func(_, i int) error {
			counts[i].Add(1)
			return nil
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
			if errs[i] != nil {
				t.Fatalf("workers=%d: job %d unexpected error %v", workers, i, errs[i])
			}
		}
	}
}

func TestRunKeepsErrorsByIndex(t *testing.T) {
	boom := errors.New("boom")
	errs := Run(10, 4, func(_, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	for i, err := range errs {
		if i%3 == 0 {
			if !errors.Is(err, boom) {
				t.Fatalf("job %d error = %v, want wrapped boom", i, err)
			}
		} else if err != nil {
			t.Fatalf("job %d error = %v, want nil", i, err)
		}
	}
}

// A panicking job must be captured as an error without wedging the pool —
// the remaining jobs all still run.
func TestRunRecoversPanicsWithoutDeadlock(t *testing.T) {
	n := 50
	var ran atomic.Int64
	errs := Run(n, 4, func(_, i int) error {
		if i == 17 {
			panic("grid point exploded")
		}
		ran.Add(1)
		return nil
	})
	if got := ran.Load(); got != int64(n-1) {
		t.Fatalf("ran %d healthy jobs, want %d", got, n-1)
	}
	if errs[17] == nil {
		t.Fatal("panicking job produced no error")
	}
	for i, err := range errs {
		if i != 17 && err != nil {
			t.Fatalf("healthy job %d got error %v", i, err)
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	if errs := Run(0, 8, func(int, int) error { t.Fatal("job ran"); return nil }); len(errs) != 0 {
		t.Fatalf("errs = %v, want empty", errs)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	// The default honours GOMAXPROCS, not the host's CPU count, so a
	// pinned process or a container CPU limit sizes the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers() = %d under GOMAXPROCS(3), want 3", got)
	}
	var ran atomic.Int64
	errs := Run(25, 0, func(w, _ int) error {
		ran.Add(1)
		if w >= 3 {
			return fmt.Errorf("worker index %d with a default pool of 3", w)
		}
		return nil
	})
	if ran.Load() != 25 {
		t.Fatalf("ran %d jobs with default workers, want 25", ran.Load())
	}
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := EffectiveWorkers(100, 8); got != 8 {
		t.Fatalf("EffectiveWorkers(100, 8) = %d", got)
	}
	if got := EffectiveWorkers(3, 8); got != 3 {
		t.Fatalf("EffectiveWorkers(3, 8) = %d (never exceeds n)", got)
	}
	if got := EffectiveWorkers(10, 0); got != DefaultWorkers() && got != 10 {
		t.Fatalf("EffectiveWorkers(10, 0) = %d", got)
	}
}

// The worker index must stay in [0, EffectiveWorkers) and each worker must
// run its jobs sequentially — per-worker state (packet pools) relies on it.
func TestRunWorkerIndexIsolation(t *testing.T) {
	n, workers := 200, 5
	eff := EffectiveWorkers(n, workers)
	busy := make([]atomic.Int64, eff)
	errs := Run(n, workers, func(w, i int) error {
		if w < 0 || w >= eff {
			return fmt.Errorf("worker index %d outside [0,%d)", w, eff)
		}
		if busy[w].Add(1) != 1 {
			return fmt.Errorf("worker %d ran two jobs concurrently", w)
		}
		defer busy[w].Add(-1)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}
