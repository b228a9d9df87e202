package durable_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestStoresMutateThroughDurable holds the stores to this package: no
// non-test file of the runner cache, the job store or the trace store
// may call an os function that creates, renames, truncates or removes
// a file or directory, so every such change goes through FS and its
// Hook. Chtimes, which changes no contents, is allowed.
func TestStoresMutateThroughDurable(t *testing.T) {
	banned := map[string]bool{
		"Remove": true, "RemoveAll": true, "Rename": true, "OpenFile": true, "Truncate": true,
		"Mkdir": true, "MkdirAll": true, "WriteFile": true, "Create": true, "CreateTemp": true,
	}
	for _, dir := range []string{"../runner", "../serve/jobs", "../tracestore"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, pkg := range pkgs {
			for name, f := range pkg.Files {
				osName := ""
				for _, imp := range f.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); path == "os" {
						osName = "os"
						if imp.Name != nil {
							osName = imp.Name.Name
						}
					}
				}
				if osName == "" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName && banned[sel.Sel.Name] {
						t.Errorf("%s:%d: os.%s bypasses durable.FS", filepath.ToSlash(name), fset.Position(call.Pos()).Line, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}
