package scenario

import (
	"testing"

	"deltasigma"
)

// Every experiment of every figure ends drained: once its traffic stops
// and the network has had a grace period, each pooled packet reference is
// back in the pool and every link's conservation laws hold.
func TestFiguresEndDrained(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	figs := []struct {
		name string
		run  func(Options) *Result
	}{
		{"fig1", Fig1}, {"fig7", Fig7},
		{"fig8a", Fig8a}, {"fig8b", Fig8b}, {"fig8c", Fig8c}, {"fig8d", Fig8d},
		{"fig8e", Fig8e}, {"fig8f", Fig8f}, {"fig8g", Fig8g}, {"fig8h", Fig8h},
		{"fig9a", Fig9a}, {"fig9b", Fig9b},
	}
	var labs []*lab
	labHook = func(l *lab) { labs = append(labs, l) }
	defer func() { labHook = nil }()
	for _, f := range figs {
		labs = labs[:0]
		f.run(Options{Scale: 0.1, Seed: 2003})
		if len(labs) == 0 {
			t.Errorf("%s: built no lab", f.name)
		}
		for i, l := range labs {
			for _, v := range l.e.DrainAndAudit(10 * deltasigma.Second) {
				t.Errorf("%s lab %d: %v", f.name, i, v)
			}
			if out := l.e.Pool().Outstanding(); out != 0 {
				t.Errorf("%s lab %d: %d pooled packet references outstanding after drain", f.name, i, out)
			}
		}
	}
}
