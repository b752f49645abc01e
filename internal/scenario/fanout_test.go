package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// A multi-run figure fans its experiments out on the campaign pool, one
// worker per core GOMAXPROCS allows. Its bytes must not depend on that
// width: one worker and four produce the same JSON, and both match the
// digest the figure had when it still ran serially.
func TestFiguresWidthIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are moderate-length simulations")
	}
	figs := []struct {
		name   string
		run    func(Options) *Result
		sha256 string // Scale 0.05, seed 2003, recorded from the serial figures
	}{
		{"fig8a", Fig8a, "03529763368805715650d32bf868ffcae38dddce0a67e8b34706b0c54e2ca273"},
		{"fig8b", Fig8b, "7fa6fd21ac406c24302b090d2e8088d506b465fdb5c1f887ef8a6a11054168fe"},
		{"fig8c", Fig8c, "35844635db933c90fec5e1e294766a3a054162b30a88f68fb3582850424bb08c"},
		{"fig8d", Fig8d, "e35b24a43200534e6d77dfeda24b2c743ed5f339b9f825df2aec399faad50efe"},
		{"fig8e", Fig8e, "1c41d075edce5f1a79661782caff5be54d21b241bed99ba7a49253df08964581"},
		{"fig8f", Fig8f, "209daf5f1a13f2bc8c5bc147f0425246fdb62203fcc112972bb0e46fa50d87e0"},
		{"fig9a", Fig9a, "97400eac770525018565b149285833456aa32c6c4433509aaa6971e7b1874f72"},
		{"fig9b", Fig9b, "dd15175449d34f5f8d9fd972e9f9f7ccfb707c41d5ebddf50ea2a88493f638ab"},
	}
	at := func(procs int, run func(Options) *Result) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, err := json.Marshal(run(Options{Scale: 0.05, Seed: 2003}))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			narrow, wide := at(1, f.run), at(4, f.run)
			if !bytes.Equal(narrow, wide) {
				t.Fatalf("output differs between GOMAXPROCS 1 and 4:\n%s\n%s", narrow, wide)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(narrow)); got != f.sha256 {
				t.Fatalf("sha256 %s, want %s recorded from the serial figure", got, f.sha256)
			}
		})
	}
}
