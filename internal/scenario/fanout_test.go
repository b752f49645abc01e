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
	// The multi-run figures' digests at Scale 0.05, seed 2003, recorded
	// from the serial figures; fig8b–9b re-recorded when key receivers
	// became one decision chain.
	digests := map[string]string{
		"fig8a": "03529763368805715650d32bf868ffcae38dddce0a67e8b34706b0c54e2ca273",
		"fig8b": "080a5e6ec94470414e90c40b5bc3c4eca8cf53b9ab085ea38a228bd6bc9f40b6",
		"fig8c": "ae9a423ea59bc7370345a296471e42c7e769a4262e68551fd21d88022b769487",
		"fig8d": "b1f2390fde778b45eeecfafba9e13e14d3de5d5d5e37e4cefa17fad6a0d2140e",
		"fig8e": "aa080148b2f17c3bd7bb72f0c010592f923c97c6ae107b60361d049617521599",
		"fig8f": "54954c6bdab11dcde8be6769f888660151a22a6604cbd103074085c6024590f2",
		"fig9a": "94075cfd243f170b3480c370c5a596e5c00cf20821642b51cec437361bac8e09",
		"fig9b": "34368eebaaa1ebe950e75d46e01f33aacdac7233ce51d2b8678e1f9725e0cbec",
	}
	at := func(procs int, run func(Options) *Result) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, err := json.Marshal(run(Options{Scale: 0.05, Seed: 2003}))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, f := range Figures {
		want, ok := digests[f.Name]
		if !ok {
			continue // runs one experiment: nothing fans out
		}
		t.Run(f.Name, func(t *testing.T) {
			narrow, wide := at(1, f.Run), at(4, f.Run)
			if !bytes.Equal(narrow, wide) {
				t.Fatalf("output differs between GOMAXPROCS 1 and 4:\n%s\n%s", narrow, wide)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(narrow)); got != want {
				t.Fatalf("sha256 %s, want %s recorded from the serial figure", got, want)
			}
		})
	}
}
