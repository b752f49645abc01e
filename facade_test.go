package deltasigma_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// facadeSurface lists the root package's exported API as parsed from its
// non-test files: every exported func, type and const, and every exported
// method on an exported type, one "kind Name" line each, sorted. A type
// declared as an alias of another package's type, type X = pkg.Y, lists
// Y's exported methods as X's, read from that package's non-test files.
func facadeSurface(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, f := range parseDir(t, ".") {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name)
					continue
				}
				if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					out = append(out, "method "+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						out = append(out, "type "+s.Name.Name)
						if s.Assign.IsValid() {
							for _, m := range aliasMethods(t, f, s.Type) {
								out = append(out, "method "+s.Name.Name+"."+m)
							}
						}
					case *ast.ValueSpec:
						if d.Tok != token.CONST {
							continue
						}
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, "const "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// parseDir parses the non-test Go files of one directory of the module.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// aliasMethods lists the exported methods of the module type an alias in
// file f names, pkg.Y: those declared on Y in the package f imports as pkg.
func aliasMethods(t *testing.T, f *ast.File, target ast.Expr) []string {
	t.Helper()
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		dir, inModule := strings.CutPrefix(path, "deltasigma/")
		if !inModule || (imp.Name == nil && filepath.Base(path) != pkg.Name) || (imp.Name != nil && imp.Name.Name != pkg.Name) {
			continue
		}
		var methods []string
		for _, pf := range parseDir(t, dir) {
			for _, decl := range pf.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.IsExported() &&
					receiverType(d.Recv.List[0].Type) == sel.Sel.Name {
					methods = append(methods, d.Name.Name)
				}
			}
		}
		return methods
	}
	return nil
}

// receiverType names a method receiver's base type: T for T, *T and T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestFacadeSurface pins the facade's exported names against
// testdata/facade_api.txt, so every name a change adds or removes shows up
// in its diff. Regenerate with -update-golden.
func TestFacadeSurface(t *testing.T) {
	got := facadeSurface(t)
	path := filepath.Join("testdata", "facade_api.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("exported but not in %s: %s", path, g)
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("in %s but no longer exported: %s", path, w)
		}
	}
}
