package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// daemonDir is the activityd command, relative to this package.
const daemonDir = "../../cmd/activityd"

// flagFuncs are the flag-package functions that register a flag; each
// takes the flag's name as its first string-literal argument.
var flagFuncs = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// docFlag matches a "-name" flag mention in prose: a dash starting a
// word, so hyphenated words ("first-contact") do not count.
var docFlag = regexp.MustCompile(`(?:^|[\s(])-([a-z][a-z0-9-]*)`)

// TestDaemonFlagsMatchPackageDoc keeps activityd's usage comment honest:
// the flags cmd/activityd registers must be exactly the -flag names its
// package doc comment uses, so no flag goes undocumented and the doc
// names no flag that is gone.
func TestDaemonFlagsMatchPackageDoc(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, daemonDir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	registered, documented := map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if file.Doc != nil {
				for _, m := range docFlag.FindAllStringSubmatch(file.Doc.Text(), -1) {
					documented[m[1]] = true
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if name, ok := flagRegistration(n); ok {
					registered[name] = true
				}
				return true
			})
		}
	}
	if len(registered) == 0 {
		t.Fatalf("found no flag registrations in %s", daemonDir)
	}
	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("activityd registers -%s, but its package doc never mentions it", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("activityd's package doc mentions -%s, which it does not register", name)
		}
	}
}

// flagRegistration reports the flag name n registers, if n is a call
// like flag.IntVar(&v, "name", ...).
func flagRegistration(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !flagFuncs[sel.Sel.Name] {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			return name, err == nil
		}
	}
	return "", false
}

// sortedKeys returns m's keys in order, for stable failure output.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
