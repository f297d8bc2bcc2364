// A guard against production code that only tests call: every package lives
// under internal/, so an exported identifier that no non-test file mentions
// is dead code its own tests keep alive.
package trios_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadCodeAllowlist names declarations the guard accepts without a non-test
// reference, each with the reason. Keys are "<dir>.<Name>" for funcs and
// types and "<dir>.<Recv>.<Name>" for methods, <dir> being the package's
// slash-separated directory under the repository root. An entry that names
// no declaration, or a declaration that is referenced after all, fails the
// guard, so the list cannot outlive its reasons.
var deadCodeAllowlist = map[string]string{
	// Methods the standard library calls through an interface.
	"internal/device.Calibration.UnmarshalJSON": "json.Unmarshaler: device.Parse decodes through it",
	"internal/service.statusWriter.Unwrap":      "http.ResponseController reaches the wrapped writer's Flush through it",
	"internal/service.RequestError.Unwrap":      "errors.Is/As unwrap the cause through it",
	"internal/service.CompileError.Unwrap":      "errors.Is/As unwrap the cause through it",
	"internal/sim.splitmixSource.Int63":         "rand.Source: rand.New draws through it",

	// Test oracles other packages' tests share; a _test.go file cannot
	// export to another package.
	"internal/obs.LintExposition":        "exposition linter the service and fleet /metrics tests run",
	"internal/sim.SameClassicalFunction": "classical-permutation reference for the decompose tests",
	"internal/sim.Equivalent":            "unitary-equivalence oracle for six packages' tests",
	"internal/topo.Ring":                 "cycle topology the route and compiler tests share",

	// Gate builders: every gate name has one, and the tests of a dozen
	// packages build their fixtures with these.
	"internal/circuit.Circuit.I":       "gate builder for test fixtures",
	"internal/circuit.Circuit.SX":      "gate builder for test fixtures",
	"internal/circuit.Circuit.SXdg":    "gate builder for test fixtures",
	"internal/circuit.Circuit.CCZ":     "gate builder for test fixtures",
	"internal/circuit.Circuit.MCX":     "gate builder for test fixtures",
	"internal/circuit.Circuit.Barrier": "gate builder for test fixtures",
}

// modulePath is the import path of the repository root (go.mod). perfbench
// is a module of its own but imports the root's packages under this path.
const modulePath = "trios"

// TestNoTestOnlyProductionAPI parses every non-test .go file in the
// repository, cmd/, examples/ and perfbench/ included, and fails for each
// exported func, method or type under internal/ that nothing outside its
// own declaration mentions, and for each unexported package-level func or
// method that nothing else in its own package mentions.
func TestNoTestOnlyProductionAPI(t *testing.T) {
	problems, err := deadCode(".", deadCodeAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDeadCodeGuard holds the guard to its contract on a small synthetic
// tree: it flags an unused exported func, type and method and an unused
// unexported helper, accepts what non-test code references (across
// packages, through an interface, or from a main package), ignores what
// only a test file references, and rejects stale allowlist entries.
func TestDeadCodeGuard(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

type Used struct{}

// Method is reached only through the Runner interface.
func (Used) Method() {}

type Runner interface{ Method() }

func (Used) Unused() {}

func Exported() Used { return helper() }

func helper() Used { return Used{} }

func TestOnly() {}

func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

type Dead struct{}

func (Dead) String() string { return "" }

func Allowed() {}

func Referenced() {}
`,
		"internal/a/a_test.go": `package a

func useTestOnly() { TestOnly(); _ = Dead{}; _ = recursive(1) }
`,
		"cmd/m/main.go": `package main

import (
	alias "trios/internal/a"
)

func main() {
	var r alias.Runner = alias.Exported()
	r.Method()
	alias.Referenced()
}
`,
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"internal/a.Allowed":    "kept on purpose",
		"internal/a.Referenced": "stale: cmd/m calls it",
		"internal/a.Gone":       "stale: no such declaration",
	}
	problems, err := deadCode(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(problems, "\n")
	for _, want := range []string{
		"internal/a.Used.Unused",
		"internal/a.TestOnly",
		"internal/a.recursive",
		"internal/a.Dead ",
		"internal/a.Dead.String",
		`allowlist entry "internal/a.Referenced" is stale: it is referenced`,
		`allowlist entry "internal/a.Gone" is stale: no such declaration`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("guard missed %q; reported:\n%s", want, got)
		}
	}
	// Anything more is a live declaration flagged by mistake.
	if len(problems) != 7 {
		t.Errorf("got %d problems, want 7:\n%s", len(problems), got)
	}
}

// declInfo is one checked declaration.
type declInfo struct {
	key      string // allowlist key
	dir      string // package directory
	name     string
	kind     string // "func", "method" or "type"
	exported bool
	pos      token.Position
	from, to token.Pos // its own extent: mentions inside it do not count
}

// mention is one non-declaring occurrence of a name in non-test code.
type mention struct {
	dir string
	pos token.Pos
}

// deadCode scans the non-test Go files under root and returns one line per
// unreferenced declaration and per stale allowlist entry, sorted.
//
// The scan is by name, not by type: a func or type counts as referenced by a
// bare identifier in its own package or by pkg.Name in a file importing that
// package; a method counts as referenced by any .Name selector or interface
// method Name (its own package only, if unexported), since telling receivers
// apart needs type information. It therefore misses some dead methods, and
// it flags methods that only the standard library calls through an
// interface (String, Unwrap, UnmarshalJSON, ...), which the allowlist names.
func deadCode(root string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	var decls []*declInfo
	idents := map[string][]mention{}    // "<dir>.<Name>" -> bare or qualified uses
	selectors := map[string][]mention{} // method name -> selector and interface uses

	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		decls = append(decls, fileDecls(fset, dir, f)...)
		fileMentions(dir, f, idents, selectors)
		return nil
	})
	if err != nil {
		return nil, err
	}

	referenced := func(d *declInfo) bool {
		uses := idents[d.dir+"."+d.name]
		if d.kind == "method" {
			uses = selectors[d.name]
		}
		for _, u := range uses {
			if d.from <= u.pos && u.pos < d.to {
				continue
			}
			if !d.exported && u.dir != d.dir {
				continue
			}
			return true
		}
		return false
	}

	var problems []string
	seen := map[string]bool{}
	for _, d := range decls {
		checked := !d.exported || strings.HasPrefix(d.dir, "internal/")
		if !checked || (d.kind == "func" && (d.name == "main" || d.name == "init")) || d.name == "_" {
			continue
		}
		used := referenced(d)
		if _, ok := allow[d.key]; ok {
			seen[d.key] = true
			if used {
				problems = append(problems, fmt.Sprintf("%s: allowlist entry %q is stale: it is referenced", d.pos, d.key))
			}
			continue
		}
		if !used {
			where := "outside its declaration"
			if !d.exported {
				where = "in its own package"
			}
			problems = append(problems, fmt.Sprintf("%s: %s %s has no non-test reference %s", d.pos, d.kind, d.key, where))
		}
	}
	for key := range allow {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("allowlist entry %q is stale: no such declaration", key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// fileDecls returns the funcs, methods and types f declares at package level.
func fileDecls(fset *token.FileSet, dir string, f *ast.File) []*declInfo {
	var out []*declInfo
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			d := &declInfo{
				dir:      dir,
				name:     decl.Name.Name,
				kind:     "func",
				exported: decl.Name.IsExported(),
				pos:      fset.Position(decl.Name.Pos()),
				from:     decl.Pos(),
				to:       decl.End(),
			}
			d.key = dir + "." + d.name
			if decl.Recv != nil && len(decl.Recv.List) == 1 {
				d.kind = "method"
				d.key = dir + "." + recvName(decl.Recv.List[0].Type) + "." + d.name
			}
			out = append(out, d)
		case *ast.GenDecl:
			if decl.Tok != token.TYPE {
				continue
			}
			for _, spec := range decl.Specs {
				ts := spec.(*ast.TypeSpec)
				if !ts.Name.IsExported() {
					continue
				}
				from, to := ts.Pos(), ts.End()
				if len(decl.Specs) == 1 {
					from, to = decl.Pos(), decl.End()
				}
				d := &declInfo{
					key:      dir + "." + ts.Name.Name,
					dir:      dir,
					name:     ts.Name.Name,
					kind:     "type",
					exported: true,
					pos:      fset.Position(ts.Name.Pos()),
					from:     from,
					to:       to,
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// recvName returns the receiver's base type name: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// fileMentions records every name f uses, as opposed to declares: bare
// identifiers under "<dir>.<Name>", pkg.Name selectors on an imported
// package under that package's "<dir>.<Name>", and every other selector and
// interface method name under the method name alone.
func fileMentions(dir string, f *ast.File, idents, selectors map[string][]mention) {
	imports := map[string]string{} // local name -> package dir
	for _, imp := range f.Imports {
		ip, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (ip != modulePath && !strings.HasPrefix(ip, modulePath+"/")) {
			continue
		}
		pdir := strings.TrimPrefix(strings.TrimPrefix(ip, modulePath), "/")
		if pdir == "" {
			pdir = "."
		}
		local := path.Base(ip)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = pdir
	}

	// Identifiers that declare rather than use a name.
	declaring := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declaring[n.Name] = true
			if n.Recv != nil {
				// A receiver's type names the method's owner, not a use of it.
				for _, fld := range n.Recv.List {
					ast.Inspect(fld.Type, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							declaring[id] = true
						}
						return true
					})
				}
			}
		case *ast.TypeSpec:
			declaring[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						declaring[id] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						declaring[id] = true
					}
				}
			}
		case *ast.LabeledStmt:
			declaring[n.Label] = true
		case *ast.BranchStmt:
			if n.Label != nil {
				declaring[n.Label] = true
			}
		case *ast.ImportSpec:
			if n.Name != nil {
				declaring[n.Name] = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						declaring[id] = true // a struct field name
					}
				}
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					selectors[id.Name] = append(selectors[id.Name], mention{dir, id.Pos()})
				}
			}
		case *ast.SelectorExpr:
			declaring[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if pdir, ok := imports[x.Name]; ok && (x.Obj == nil || x.Obj.Kind == ast.Pkg) {
					idents[pdir+"."+n.Sel.Name] = append(idents[pdir+"."+n.Sel.Name], mention{dir, n.Sel.Pos()})
					declaring[x] = true
					return true
				}
			}
			selectors[n.Sel.Name] = append(selectors[n.Sel.Name], mention{dir, n.Sel.Pos()})
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || declaring[id] {
			return true
		}
		// A local variable or parameter that shadows a package-level name.
		if id.Obj != nil && id.Obj.Kind == ast.Var {
			if _, ok := id.Obj.Decl.(*ast.ValueSpec); !ok {
				return true
			}
		}
		idents[dir+"."+id.Name] = append(idents[dir+"."+id.Name], mention{dir, id.Pos()})
		return true
	})
}
