package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoDocsClean runs the real checks against the real repo: no dead
// relative links in README.md/DESIGN.md/docs/, no undocumented packages.
func TestRepoDocsClean(t *testing.T) {
	problems, err := Check("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCheckCatchesProblems builds a tiny repo with one dead link, one live
// link and one undocumented package, and checks each verdict.
func TestCheckCatchesProblems(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "DESIGN.md", "design\n")
	writeFile(t, root, "README.md",
		"[live](DESIGN.md) and [dead](docs/MISSING.md)\n"+
			"[external](https://example.com) [anchor](#performance)\n"+
			"```\nnot a [link](nope.md) — fenced\n```\n")
	writeFile(t, root, "docs/EXTRA.md", "[up](../README.md) [gone](../LICENSE)\n")
	writeFile(t, root, "documented/doc.go", "// Package documented has a doc.\npackage documented\n")
	writeFile(t, root, "bare/bare.go", "package bare\n")

	problems, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`README.md:1: dead link "docs/MISSING.md"`,
		`docs/EXTRA.md:1: dead link "../LICENSE"`,
		`bare: package bare has no package doc comment`,
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems %v, want %d", len(problems), problems, len(want))
	}
	for _, w := range want {
		found := false
		for _, p := range problems {
			if strings.Contains(p, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing expected problem %q in %v", w, problems)
		}
	}
}

func writeFile(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCatchesStaleIdentifiers runs the identifier check over a tiny
// module: one row per backticked reference, and whether it is stale.
func TestCheckCatchesStaleIdentifiers(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "sim/sim.go", `// Package sim is a scheduler.
package sim

// Scheduler orders events.
type Scheduler struct{ Now int }

// Reserve hands out a sequence number.
func (s *Scheduler) Reserve() int { return 0 }

// Clock embeds a Scheduler.
type Clock struct{ *Scheduler }

// Alias is another name for Scheduler.
type Alias = Scheduler

// Runner runs.
type Runner interface{ Run() }

// New builds a Scheduler.
func New() *Scheduler { return nil }
`)
	for _, tc := range []struct {
		ref   string
		stale bool
	}{
		{"`Scheduler.Reserve`", false},
		{"`Scheduler.Reserve()`", false},
		{"`Scheduler.Now`", false},
		{"`Clock.Reserve`", false},
		{"`Alias.Now`", false},
		{"`Runner.Run`", false},
		{"`sim.New()`", false},
		{"`sim.Reserve`", false},
		{"`Scheduler.ReserveSeq`", true},
		{"`Clock.Gone()`", true},
		{"`sim.Old`", true},
		{"`Scheduler.reserve`", false}, // unexported: not checked
		{"`sync.Pool`", false},         // not declared in the module
		{"`Scheduler.Reserve(7)`", false},
	} {
		writeFile(t, root, "README.md", "see "+tc.ref+"\n```\n`Scheduler.Fenced`\n```\n")
		problems, err := Check(root)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(problems) == 1 && strings.Contains(problems[0], "README.md:1: stale identifier "+tc.ref); got != tc.stale || len(problems) > 1 {
			t.Errorf("%s: problems %v, want stale=%v", tc.ref, problems, tc.stale)
		}
	}
}

// TestCheckCatchesStaleTestNames runs the -run check over a tiny module
// with two test functions: one row per -run argument, and whether it names
// a test that does not exist.
func TestCheckCatchesStaleTestNames(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "sim/sim.go", "// Package sim is a scheduler.\npackage sim\n")
	writeFile(t, root, "sim/sim_test.go", `package sim

import "testing"

func TestEvaluateRuleDecrease(t *testing.T) {}

func TestReserve(t *testing.T) {}

func helperTest(t *testing.T) {}
`)
	for _, tc := range []struct {
		run   string
		stale string
	}{
		{`-run 'TestReserve'`, ""},
		{`-run "TestReserve|TestEvaluateRule.*"`, ""},
		{`-run=^TestReserve$`, ""},
		{`-run 'TestReserve/subtest'`, ""},
		{`-run=NoTests`, ""},
		{`-run 'TestGone'`, "TestGone"},
		{`-run 'TestReserve|TestReserveSeq'`, "TestReserveSeq"},
		{`-run 'TestEvaluateRule'`, "TestEvaluateRule"}, // a prefix needs its .*
		{`-run 'TestMissing.*'`, "TestMissing.*"},
		{`-run helperTest`, ""}, // not a Test name
	} {
		writeFile(t, root, ".github/workflows/ci.yml", "steps:\n  - run: go test "+tc.run+" ./...\n")
		problems, err := Check(root)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if tc.stale != "" {
			want = 1
		}
		if len(problems) != want || want == 1 && !strings.Contains(problems[0], ".github/workflows/ci.yml:2: -run names "+tc.stale+",") {
			t.Errorf("%s: problems %v, want stale %q", tc.run, problems, tc.stale)
		}
	}
}

// TestCheckCatchesUnorderedMapRanges runs the map-range lint over a tiny
// module: of the loops in an internal package's non-test code, only the
// bare range over a map is reported — not the annotated one, not the one
// over a slice — and neither the test file's nor the command's loop is
// linted at all.
func TestCheckCatchesUnorderedMapRanges(t *testing.T) {
	root := t.TempDir()
	writeFile(t, root, "go.mod", "module fixture\n\ngo 1.22\n")
	writeFile(t, root, "internal/tally/tally.go", `// Package tally adds things up.
package tally

// Counts maps names to counts.
type Counts map[string]int

// Sum adds the counts.
func Sum(c Counts) (n int) {
	// order-insensitive: addition commutes
	for _, v := range c {
		n += v
	}
	return n
}

// Any returns some name.
func Any(c Counts) string {
	for k := range c {
		return k
	}
	return ""
}

// Len counts a slice.
func Len(s []int) (n int) {
	for range s {
		n++
	}
	return n
}
`)
	writeFile(t, root, "internal/tally/tally_test.go", "package tally\n\nfunc drain(m map[int]int) {\n\tfor range m {\n\t}\n}\n")
	writeFile(t, root, "cmd/tool/main.go", "// Command tool ranges.\npackage main\n\nfunc main() {\n\tfor range map[int]int{} {\n\t}\n}\n")

	problems, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.HasPrefix(problems[0], "internal/tally/tally.go:18: range over a map") {
		t.Fatalf("problems %v, want only the bare range at internal/tally/tally.go:18", problems)
	}
}
