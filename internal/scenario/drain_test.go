package scenario

import (
	"sync"
	"testing"

	"deltasigma"
)

// Every experiment of every figure ends drained: once its traffic stops
// and the network has had a grace period, each pooled packet reference is
// back in the pool and every link's conservation laws hold. Each figure
// must also build exactly its experiments, so a fan-out that drops a job
// fails by name.
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
	var (
		mu   sync.Mutex
		labs []*lab
	)
	labHook = func(l *lab) {
		mu.Lock()
		labs = append(labs, l)
		mu.Unlock()
	}
	defer func() { labHook = nil }()
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			labs = labs[:0]
			f.run(Options{Scale: 0.1, Seed: 2003})
			if len(labs) != f.labs {
				t.Errorf("built %d labs, want %d", len(labs), f.labs)
			}
			for i, l := range labs {
				for _, v := range l.e.DrainAndAudit(10 * deltasigma.Second) {
					t.Errorf("lab %d: %v", i, v)
				}
				if out := l.e.Pool().Outstanding(); out != 0 {
					t.Errorf("lab %d: %d pooled packet references outstanding after drain", i, out)
				}
			}
		})
	}
}
