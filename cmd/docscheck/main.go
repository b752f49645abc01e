// Command docscheck keeps the documentation layer honest. It fails the
// build (exit 1) when
//
//   - a relative markdown link in README.md, DESIGN.md or docs/*.md points
//     at a file that does not exist, or
//   - a Go package under the repo (root facade, internal/..., cmd/...)
//     lacks a package doc comment, or
//   - a backticked `X.Y` or `X.Y()` in those markdown files names a package
//     or type X declared in the module that has no declaration, field or
//     method Y, or
//   - a go test -run argument in .github/workflows/*.yml names a Test that
//     matches no test function in the module (a trailing .* is a prefix), or
//   - non-test Go in the root package or under internal/ ranges over a map
//     without a "// order-insensitive: <why>" comment on the loop's line or
//     the line above: map iteration order is random, so such a loop can make
//     a seeded run differ from run to run. Map types come from go/types,
//     with imports type-checked from source.
//
// External links (http/https/mailto) are deliberately not fetched — the
// check must be hermetic and deterministic for CI. Run it from the repo
// root, or pass the root as the single argument:
//
//	go run ./cmd/docscheck
package main

import (
	"fmt"
	"os"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, err := Check(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}
