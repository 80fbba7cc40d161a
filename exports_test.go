package offnetscope

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods under
// internal/ that only their own package's tests name, each with the
// reason it stays.
var testOnlyExports = map[string]string{
	"corpus.recordError.Unwrap":             "errors.Is and errors.As call it through the standard Unwrap interface",
	"obs.BucketBounds":                      "TestHistogramBuckets checks each bucket index against its bounds",
	"resilience.Breaker.State":              "the breaker's tests observe its live closed/open/half-open state",
	"scenarios.Grids":                       "TestGridByName resolves every grid it names",
	"worldsim.World.TrueServicePresentASes": "the world tests check service presence and its boost against it",
}

// TestNoTestOnlyExports fails when an exported function or method
// declared in a non-test file under internal/ is named nowhere but its
// own declaration and its own package's tests: code only tests reach
// should be deleted with its tests, or listed in testOnlyExports with
// the reason it stays. A name counts as used when it appears as an
// identifier in any non-test file of either module (bench/ included),
// or in a test file of another package directory, whose tests then
// share it. The check is by name, so a use of any identically named
// identifier counts; it errs towards passing.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, dir, name string }
	var decls []decl
	usedOutside := map[string]bool{}         // names used in non-test files
	testUses := map[string]map[string]bool{} // name → test file directories naming it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !isTest && strings.HasPrefix(dir, "internal/") && fn.Name.IsExported() {
				key := filepath.Base(dir) + "."
				if fn.Recv != nil {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + fn.Name.Name, dir, fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declared[id] {
				return true
			}
			if !isTest {
				usedOutside[id.Name] = true
			} else {
				if testUses[id.Name] == nil {
					testUses[id.Name] = map[string]bool{}
				}
				testUses[id.Name][dir] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	var testOnly []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if usedOutside[d.name] {
			continue
		}
		shared := false
		for dir := range testUses[d.name] {
			if dir != d.dir {
				shared = true
			}
		}
		if !shared && testOnlyExports[d.key] == "" {
			testOnly = append(testOnly, d.key)
		}
	}
	sort.Strings(testOnly)
	for _, key := range testOnly {
		t.Errorf("%s is named only by its own package's tests: delete it with its tests, or list it in testOnlyExports with a reason", key)
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("testOnlyExports lists %s, which is not declared under internal/", key)
		}
	}
}

// recvName returns the type name of a method receiver: T for T, *T,
// T[V] and *T[V].
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
