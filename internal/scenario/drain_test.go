package scenario

import (
	"sync"
	"testing"

	"deltasigma"
)

// Every experiment of every figure ends drained: as each lab closes, its
// traffic stops and the network gets a grace period, after which every
// pooled packet reference the lab took is back in the pool and every
// link's conservation laws hold. Labs share warm pools, so balance is
// judged against the gauge each lab saw when it was built, not zero. Each
// figure must also close exactly the experiments it builds, each once, so
// a fan-out that drops a job or a site that forgets to close fails by name.
func TestFiguresEndDrained(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	figs := []struct {
		name string
		run  func(Options) *Result
		labs int // experiments at Scale 0.1
	}{
		{"fig1", Fig1, 1}, {"fig7", Fig7, 1},
		{"fig8a", Fig8a, 4}, {"fig8b", Fig8b, 4}, {"fig8c", Fig8c, 8}, {"fig8d", Fig8d, 8},
		{"fig8e", Fig8e, 2}, {"fig8f", Fig8f, 2}, {"fig8g", Fig8g, 1}, {"fig8h", Fig8h, 1},
		{"fig9a", Fig9a, 4}, {"fig9b", Fig9b, 3},
	}
	defer func() { labHook = nil }()
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				closes = map[*lab]int{}
			)
			labHook = func(l *lab) {
				violations := l.e.DrainAndAudit(10 * deltasigma.Second)
				mu.Lock()
				defer mu.Unlock()
				closes[l]++
				for _, v := range violations {
					t.Errorf("lab %d: %v", len(closes), v)
				}
			}
			f.run(Options{Scale: 0.1, Seed: 2003})
			if len(closes) != f.labs {
				t.Errorf("closed %d labs, want %d", len(closes), f.labs)
			}
			for _, n := range closes {
				if n != 1 {
					t.Errorf("a lab closed %d times, want once", n)
				}
			}
		})
	}
}
