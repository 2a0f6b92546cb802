package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the repository root package.
const modulePath = "github.com/extendedtx/activityservice"

// facades maps each public facade's import path to its directory,
// relative to this package.
var facades = map[string]string{
	modulePath:          "../..",
	modulePath + "/orb": "../../orb",
	modulePath + "/ots": "../../ots",
}

// callerTrees are the directories whose non-test files are the facades'
// consumers.
var callerTrees = []string{"../../examples", "../../cmd", "../../bench"}

// TestFacadeExportsHaveACaller keeps the public facades (orb, ots and
// the root package) to the surface their consumers call. An exported
// facade name must either (a) be referenced as pkg.Name by a non-test
// file under examples/, cmd/ or bench/, or (b) appear in the signature
// of a declaration kept by either rule. The test fails once per name
// that satisfies neither: anything else belongs in internal/.
func TestFacadeExportsHaveACaller(t *testing.T) {
	called := facadeCalls(t)
	for path, dir := range facades {
		decls := facadeDecls(t, dir)
		kept := map[string]bool{}
		var keep func(name string)
		keep = func(name string) {
			if kept[name] {
				return
			}
			kept[name] = true
			for _, ref := range signatureRefs(decls[name], decls) {
				keep(ref)
			}
		}
		for name := range decls {
			if called[path][name] {
				keep(name)
			}
		}
		var unused []string
		for name := range decls {
			if !kept[name] {
				unused = append(unused, name)
			}
		}
		sort.Strings(unused)
		for _, name := range unused {
			t.Errorf("%s.%s has no caller in examples/, cmd/ or bench/ and is in no kept signature", filepath.Base(path), name)
		}
	}
}

// facadeDecls returns each exported top-level name declared by the
// non-test files in dir, mapped to the nodes its signature is read from:
// a func's type, a type's definition, a const or var's declared type.
func facadeDecls(t *testing.T, dir string) map[string][]ast.Node {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string][]ast.Node{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						decls[d.Name.Name] = []ast.Node{d.Type}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[s.Name.Name] = []ast.Node{s.Type}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls[n.Name] = nil
									if s.Type != nil {
										decls[n.Name] = []ast.Node{s.Type}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// signatureRefs returns the names of decls that nodes mention
// unqualified (a qualified X.Name belongs to another package).
func signatureRefs(nodes []ast.Node, decls map[string][]ast.Node) []string {
	var refs []string
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				return false
			case *ast.Ident:
				if _, ok := decls[x.Name]; ok {
					refs = append(refs, x.Name)
				}
			}
			return true
		})
	}
	return refs
}

// facadeCalls returns, per facade import path, the names that non-test
// files under callerTrees select from it.
func facadeCalls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	called := map[string]map[string]bool{}
	for path := range facades {
		called[path] = map[string]bool{}
	}
	fset := token.NewFileSet()
	for _, root := range callerTrees {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				return err
			}
			local := map[string]string{} // local package name -> facade path
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := facades[path]; !ok {
					continue
				}
				name := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = path
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
					if path, ok := local[id.Name]; ok {
						called[path][sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return called
}
