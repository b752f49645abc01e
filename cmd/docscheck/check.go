package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Check runs every docs check against the repo rooted at root and returns
// one human-readable line per problem, sorted for deterministic output.
func Check(root string) ([]string, error) {
	pkgs, err := parsePackages(root)
	if err != nil {
		return nil, err
	}
	problems := checkPackageDocs(root, pkgs)
	members := declarations(pkgs)
	err = eachLine(root, func(file, rel string, n int, line string) {
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if !relativeLink(m[1]) || target == "" {
				continue // external, or a same-file anchor
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(file), filepath.FromSlash(target))); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: dead link %q", rel, n, m[1]))
			}
		}
		for _, m := range identRE.FindAllStringSubmatch(line, -1) {
			if known, ok := members[m[1]]; ok && !known[m[2]] {
				problems = append(problems, fmt.Sprintf("%s:%d: stale identifier %s: %s has no %s", rel, n, m[0], m[1], m[2]))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stale, err := checkRunNames(root)
	if err != nil {
		return nil, err
	}
	problems = append(problems, stale...)
	missing, err := checkOptionsTable(root)
	if err != nil {
		return nil, err
	}
	problems = append(problems, missing...)
	unordered, err := checkMapRanges(root, pkgs)
	problems = append(problems, unordered...)
	sort.Strings(problems)
	return problems, err
}

// optionsHeading opens README.md's table of facade options.
const optionsHeading = "## The options API"

// optionCellRE matches a table row whose first cell starts with a
// backticked call, `Name(`; optionNameRE finds every such call in a cell.
var (
	optionCellRE = regexp.MustCompile("^\\|\\s*`[A-Z][A-Za-z0-9_]*\\(")
	optionNameRE = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*)\\(")
)

// checkOptionsTable reports every function named by a backticked `Name(`
// in the first cell of a row of README.md's options table, in rows whose
// first cell starts with one, that testdata/facade_api.txt does not list
// as a func: a row for a deleted option would read as live API.
func checkOptionsTable(root string) ([]string, error) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if os.IsNotExist(err) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	api, err := os.ReadFile(filepath.Join(root, "testdata", "facade_api.txt"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	funcs := map[string]bool{}
	for _, line := range strings.Split(string(api), "\n") {
		if name, ok := strings.CutPrefix(line, "func "); ok {
			funcs[strings.TrimSpace(name)] = true
		}
	}
	var problems []string
	inTable := false
	for i, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "## ") {
			inTable = strings.TrimSpace(line) == optionsHeading
		}
		if !inTable || !optionCellRE.MatchString(line) {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range optionNameRE.FindAllStringSubmatch(cell, -1) {
			if !funcs[m[1]] {
				problems = append(problems, fmt.Sprintf("README.md:%d: options table names %s, which testdata/facade_api.txt does not list as a func", i+1, m[1]))
			}
		}
	}
	return problems, nil
}

// orderInsensitive is the annotation that clears a range over a map.
const orderInsensitive = "// order-insensitive:"

// checkMapRanges reports every range over a map in the non-test Go of the
// root package and internal/ that does not carry an orderInsensitive
// comment with a reason, on its own line or the line above: Go randomizes
// map iteration order, so a loop whose effect depends on it makes a seeded
// run differ from run to run. Map types come from type-checking each
// package, the standard library from source.
func checkMapRanges(root string, pkgs map[string][]*ast.File) ([]string, error) {
	var rels []string
	for dir := range pkgs {
		rel, _ := filepath.Rel(root, dir)
		if rel = filepath.ToSlash(rel); rel == "." || rel == "internal" || strings.HasPrefix(rel, "internal/") {
			rels = append(rels, rel)
		}
	}
	if len(rels) == 0 {
		return nil, nil
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset: fset, root: root, module: modulePath(gomod),
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
	}
	var problems []string
	for _, rel := range rels {
		path := m.module
		if rel != "." {
			path += "/" + rel
		}
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
		for _, f := range m.files[path] {
			annotated := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if why, ok := strings.CutPrefix(c.Text, orderInsensitive); ok && strings.TrimSpace(why) != "" {
						annotated[fset.Position(c.Pos()).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := m.info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				if pos := fset.Position(rs.Pos()); !annotated[pos.Line] && !annotated[pos.Line-1] {
					file, _ := filepath.Rel(root, pos.Filename)
					problems = append(problems, fmt.Sprintf("%s:%d: range over a map without %q and a reason", filepath.ToSlash(file), pos.Line, orderInsensitive))
				}
				return true
			})
		}
	}
	return problems, nil
}

// modulePath reads the module path off a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// moduleImporter type-checks each of the module's packages once, from its
// non-test files, recording every expression's type in info, and hands
// every other import to the standard library's source importer.
type moduleImporter struct {
	fset         *token.FileSet
	root, module string
	std          types.ImporterFrom
	info         *types.Info
	files        map[string][]*ast.File // by import path, once checked
	pkgs         map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, m.module)
	if !ok || rel != "" && rel[0] != '/' {
		return m.std.ImportFrom(path, dir, mode)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, err := parseDir(m.fset, filepath.Join(m.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path], m.files[path] = p, files
	return p, err
}

// parseDir parses the non-test Go files of one directory with comments,
// for type-checking.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// runRE matches a go test -run argument, quoted or bare.
var runRE = regexp.MustCompile(`-run[= ]+(?:'([^']*)'|"([^"]*)"|(\S+))`)

// checkRunNames reports every Test name a -run argument in a CI workflow
// names that matches no test function in the module: a stale name selects
// nothing and fails nothing. Alternatives split on |, ^ and $ anchors and a
// /subtest suffix are dropped, and a trailing .* reads as a prefix;
// alternatives not starting with Test (-run=NoTests) are left alone.
func checkRunNames(root string) ([]string, error) {
	workflows, _ := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
	tests, err := testFuncs(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, file := range workflows {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, file)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range runRE.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1]+m[2]+m[3], "|") {
					name, _, _ = strings.Cut(strings.Trim(name, "^$"), "/")
					if strings.HasPrefix(name, "Test") && !matchesTest(name, tests) {
						problems = append(problems, fmt.Sprintf("%s:%d: -run names %s, which matches no test function", filepath.ToSlash(rel), i+1, name))
					}
				}
			}
		}
	}
	return problems, nil
}

// matchesTest reports whether name is a test function's name, or with a
// trailing .* a prefix of one.
func matchesTest(name string, tests map[string]bool) bool {
	prefix, ok := strings.CutSuffix(name, ".*")
	if !ok {
		return tests[name]
	}
	for t := range tests {
		if strings.HasPrefix(t, prefix) {
			return true
		}
	}
	return false
}

// testFuncs returns the name of every top-level Test function in the
// module's test files.
func testFuncs(root string) (map[string]bool, error) {
	tests := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	return tests, err
}

// linkRE matches inline markdown links and images: [text](target). It
// deliberately does not match reference-style links, which the repo's
// docs do not use.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// identRE matches a whole backticked `X.Y` or `X.Y()` with Y exported.
var identRE = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\(\\))?`")

// eachLine calls fn on every line outside fenced code blocks (which hold
// shell examples, not prose) of README.md and DESIGN.md at the root and
// every markdown file in docs/, with the file relative to root and the
// line number.
func eachLine(root string, fn func(file, rel string, n int, line string)) error {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append([]string{filepath.Join(root, "README.md"), filepath.Join(root, "DESIGN.md")}, files...)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
			} else if !inFence {
				fn(file, filepath.ToSlash(rel), i+1, line)
			}
		}
	}
	return nil
}

// relativeLink reports whether a markdown link target should resolve on
// the local filesystem.
func relativeLink(target string) bool {
	for _, scheme := range []string{"http://", "https://", "mailto:"} {
		if strings.HasPrefix(target, scheme) {
			return false
		}
	}
	return !strings.HasPrefix(target, "#")
}

// parsePackages parses every non-test Go file under root, keyed by
// directory. Test files never carry the package doc.
func parsePackages(root string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata" || d.Name() == "docs"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return err
	})
	return pkgs, err
}

// checkPackageDocs reports every package without a package doc comment.
func checkPackageDocs(root string, pkgs map[string][]*ast.File) []string {
	var problems []string
	for dir, files := range pkgs {
		documented := false
		for _, f := range files {
			documented = documented || f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != ""
		}
		if !documented {
			rel, _ := filepath.Rel(root, dir)
			problems = append(problems,
				fmt.Sprintf("%s: package %s has no package doc comment", filepath.ToSlash(rel), files[0].Name.Name))
		}
	}
	return problems
}

// declarations maps every package and type name declared in the module to
// the names reachable through it: a package's declarations (its methods
// included), a type's fields and methods, and those of every type it
// aliases, is defined from or embeds. Types are keyed by bare name, so
// same-named types in different packages share one set.
func declarations(pkgs map[string][]*ast.File) map[string]map[string]bool {
	members := map[string]map[string]bool{}
	includes := map[string][]string{}
	add := func(x, y string) {
		if members[x] == nil {
			members[x] = map[string]bool{}
		}
		members[x][y] = true
	}
	for _, files := range pkgs {
		for _, f := range files {
			pkg := f.Name.Name
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					add(pkg, n.Name.Name)
					if n.Recv != nil {
						add(typeName(n.Recv.List[0].Type), n.Name.Name)
					}
					return false
				case *ast.ValueSpec:
					for _, id := range n.Names {
						add(pkg, id.Name)
					}
					return false
				case *ast.TypeSpec:
					add(pkg, n.Name.Name)
					add(n.Name.Name, "")
					var fields []*ast.Field
					switch t := n.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					default:
						includes[n.Name.Name] = append(includes[n.Name.Name], typeName(t))
					}
					for _, field := range fields {
						if len(field.Names) == 0 {
							includes[n.Name.Name] = append(includes[n.Name.Name], typeName(field.Type))
						}
						for _, id := range field.Names {
							add(n.Name.Name, id.Name)
						}
					}
					return false
				}
				return true
			})
		}
	}
	var merge func(x string, seen map[string]bool)
	merge = func(x string, seen map[string]bool) {
		for _, y := range includes[x] {
			if !seen[y] {
				seen[y] = true
				merge(y, seen)
				for m := range members[y] {
					add(x, m)
				}
			}
		}
	}
	for x := range includes {
		merge(x, map[string]bool{x: true})
	}
	return members
}

// typeName returns the bare name of a (possibly pointer, qualified or
// instantiated) type expression, or "" for a type literal.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
