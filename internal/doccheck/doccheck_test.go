// Package doccheck enforces the repo's documentation contract: every
// exported identifier in the packages whose API surface operators and
// integrators touch (internal/orb, internal/core, internal/cdr,
// internal/remote and the hls/* models) must carry a doc comment, so
// `go doc` is always usable; the facades export only what their callers
// use (facade_test.go); activityd's package doc names exactly the flags
// it registers (flags_test.go); and internal/core imports no repo package
// above cdr, ids, trace and wal (layering_test.go). It runs as an
// ordinary test, which makes the CI docs job a plain
// `go test ./internal/doccheck`.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPackages are the directories whose exported surface must be
// fully documented, relative to this package.
var checkedPackages = []string{
	"../orb", "../core", "../cdr", "../remote", "../wal", "../ots",
	"../../hls/btp", "../../hls/caaction", "../../hls/lruow", "../../hls/opennested",
	"../../hls/saga", "../../hls/twopc", "../../hls/workflow", "../../hls/wscf",
}

// TestExportedIdentifiersHaveDocComments parses each checked package
// (tests excluded) and fails with one line per undocumented exported
// type, function, method, package-level const/var, struct field or
// interface method.
func TestExportedIdentifiersHaveDocComments(t *testing.T) {
	for _, dir := range checkedPackages {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			var missing []string
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			hasPackageDoc := false
			for _, pkg := range pkgs {
				for _, file := range pkg.Files {
					if file.Doc != nil {
						hasPackageDoc = true
					}
					for _, decl := range file.Decls {
						missing = append(missing, checkDecl(fset, decl)...)
					}
				}
			}
			if !hasPackageDoc {
				missing = append(missing, fmt.Sprintf("%s: no package doc comment", dir))
			}
			for _, m := range missing {
				t.Errorf("undocumented: %s", m)
			}
		})
	}
}

// aliasWords are the doc-comment markers that satisfy the byte-slice
// aliasing contract: a doc must say whether the returned bytes alias the
// source buffer (are lent) or are an owned copy.
var aliasWords = []string{"alias", "copy", "copies", "clone", "lend", "lent", "owned"}

// TestCdrByteSliceDocsStateAliasing enforces the buffer-ownership
// contract the pooled wire path depends on: every exported function or
// method in internal/cdr that returns a []byte must say in its doc
// comment whether the slice aliases (is lent from) the underlying buffer
// or is an owned copy. Buffer reuse makes a silent alias a data
// corruption, so the contract must be visible at every source of a byte
// slice, forever.
func TestCdrByteSliceDocsStateAliasing(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../cdr", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || !exportedReceiver(fd) || !returnsByteSlice(fd) {
					continue
				}
				pos := fset.Position(fd.Pos())
				if fd.Doc == nil {
					t.Errorf("%s:%d: %s returns []byte but has no doc comment stating the aliasing contract",
						filepath.Base(pos.Filename), pos.Line, fd.Name.Name)
					continue
				}
				doc := strings.ToLower(fd.Doc.Text())
				stated := false
				for _, wd := range aliasWords {
					if strings.Contains(doc, wd) {
						stated = true
						break
					}
				}
				if !stated {
					t.Errorf("%s:%d: %s returns []byte but its doc comment never says whether the slice aliases the buffer or is a copy (mention one of %v)",
						filepath.Base(pos.Filename), pos.Line, fd.Name.Name, aliasWords)
				}
			}
		}
	}
}

// TestRemoteDecoderDocsStateAliasing extends the aliasing contract to the
// wire decoders in internal/remote (the relay batch codec): every function
// whose name starts with "decode" or "Decode" must say in its doc comment
// whether what it returns aliases the frame buffer or is owned. Relay
// batches outlive their dispatch (the plant cache retains them), so a
// decoder that silently lent frame memory would corrupt cached plans the
// moment the ORB recycles the buffer.
func TestRemoteDecoderDocsStateAliasing(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../remote", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !strings.HasPrefix(strings.ToLower(fd.Name.Name), "decode") {
					continue
				}
				pos := fset.Position(fd.Pos())
				if fd.Doc == nil {
					t.Errorf("%s:%d: %s decodes wire data but has no doc comment stating the aliasing contract",
						filepath.Base(pos.Filename), pos.Line, fd.Name.Name)
					continue
				}
				doc := strings.ToLower(fd.Doc.Text())
				stated := false
				for _, wd := range aliasWords {
					if strings.Contains(doc, wd) {
						stated = true
						break
					}
				}
				if !stated {
					t.Errorf("%s:%d: %s decodes wire data but its doc comment never says whether the result aliases the buffer or is a copy (mention one of %v)",
						filepath.Base(pos.Filename), pos.Line, fd.Name.Name, aliasWords)
				}
			}
		}
	}
}

// returnsByteSlice reports whether fd's results include a []byte.
func returnsByteSlice(fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		arr, ok := r.Type.(*ast.ArrayType)
		if !ok || arr.Len != nil {
			continue
		}
		if id, ok := arr.Elt.(*ast.Ident); ok && id.Name == "byte" {
			return true
		}
	}
	return false
}

// checkDecl returns a description per undocumented exported identifier in
// one top-level declaration.
func checkDecl(fset *token.FileSet, decl ast.Decl) []string {
	var missing []string
	at := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.Base(p.Filename), p.Line, fmt.Sprintf(format, args...)))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return nil
		}
		if d.Doc == nil {
			at(d.Pos(), "func %s", d.Name.Name)
		}
	case *ast.GenDecl:
		// A doc comment on the grouped declaration covers every spec in it
		// (the idiomatic const-block style); otherwise each exported spec
		// needs its own.
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if !groupDoc && s.Doc == nil {
					at(s.Pos(), "type %s", s.Name.Name)
				}
				missing = append(missing, checkTypeMembers(fset, s)...)
			case *ast.ValueSpec:
				var exported []string
				for _, n := range s.Names {
					if n.IsExported() {
						exported = append(exported, n.Name)
					}
				}
				if len(exported) == 0 {
					continue
				}
				if !groupDoc && s.Doc == nil && s.Comment == nil {
					at(s.Pos(), "%s %s", d.Tok, strings.Join(exported, ", "))
				}
			}
		}
	}
	return missing
}

// checkTypeMembers covers the members godoc renders under a type: struct
// fields and interface methods. A doc comment or a trailing line comment
// both count.
func checkTypeMembers(fset *token.FileSet, s *ast.TypeSpec) []string {
	var missing []string
	at := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.Base(p.Filename), p.Line, fmt.Sprintf(format, args...)))
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			var exported []string
			for _, n := range f.Names {
				if n.IsExported() {
					exported = append(exported, n.Name)
				}
			}
			if len(exported) == 0 || f.Doc != nil || f.Comment != nil {
				continue
			}
			at(f.Pos(), "field %s.%s", s.Name.Name, strings.Join(exported, ", "))
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				if n.IsExported() && m.Doc == nil && m.Comment == nil {
					at(m.Pos(), "method %s.%s", s.Name.Name, n.Name)
				}
			}
		}
	}
	return missing
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types are not part of the surfaced API).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	t := d.Recv.List[0].Type
	for {
		switch rt := t.(type) {
		case *ast.StarExpr:
			t = rt.X
		case *ast.IndexExpr: // generic receiver
			t = rt.X
		case *ast.Ident:
			return rt.IsExported()
		default:
			return true
		}
	}
}
