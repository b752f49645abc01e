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
	// Experiments each figure builds at Scale 0.1.
	labs := map[string]int{
		"fig1": 1, "fig7": 1,
		"fig8a": 4, "fig8b": 4, "fig8c": 8, "fig8d": 8,
		"fig8e": 2, "fig8f": 2, "fig8g": 1, "fig8h": 1,
		"fig9a": 4, "fig9b": 3,
	}
	defer func() { labHook = nil }()
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			want, ok := labs[f.Name]
			if !ok {
				t.Fatalf("no lab count recorded for %s", f.Name)
			}
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
			f.Run(Options{Scale: 0.1, Seed: 2003})
			if len(closes) != want {
				t.Errorf("closed %d labs, want %d", len(closes), want)
			}
			for _, n := range closes {
				if n != 1 {
					t.Errorf("a lab closed %d times, want once", n)
				}
			}
		})
	}
}
