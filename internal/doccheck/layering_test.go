package doccheck

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// coreMayImport are the only repo packages internal/core may import. It
// sits below the transaction service, so internal/ots can commit through
// core's signal sets without an import cycle.
var coreMayImport = map[string]bool{
	modulePath + "/internal/cdr":   true,
	modulePath + "/internal/ids":   true,
	modulePath + "/internal/trace": true,
	modulePath + "/internal/wal":   true,
}

// TestCoreImportsNothingAboveItsLayer parses internal/core's non-test
// files and fails on each import of a repo package outside coreMayImport.
func TestCoreImportsNothingAboveItsLayer(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../core", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no package in ../core")
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, spec := range file.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(path, modulePath+"/") && !coreMayImport[path] {
					t.Errorf("%s imports %s; internal/core may import only internal/cdr, ids, trace and wal", name, path)
				}
			}
		}
	}
}
