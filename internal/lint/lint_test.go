// Package lint holds the repository's two static rules, for the bug classes
// no test fails on, and TestTree, which applies them to every package of the
// root module and of the bench/ module, _test.go files included:
//
//   - opswitch: a switch over trace.Op covers every op constant (NumOps, the
//     enum's bound, is exempt) or has a default clause. The host interface
//     grew from read/write to five ops; a switch that silently falls through
//     for a new op would corrupt state without failing loudly.
//   - maporder: no range over a map in the non-test files of the packages
//     whose state reaches flash (policed). TPFTL's GC batch update and S-FTL's
//     flush argmax once walked maps, so the translation-page write order, and
//     with it every simulated number, changed from run to run. Walk a
//     structure kept in order instead; a map that is only looked up is fine.
//
// Neither rule has a waiver. The package has test files only.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// policed matches the import paths of the packages, with their subpackages,
// whose state reaches flash.
var policed = regexp.MustCompile(`^repro/internal/(flash|ftl|core|lru|buffer|ssd|host)(/|$)`)

// listed is what the test reads of one package of `go list -json`. ImportPath
// is a package variant's ID, such as "repro/internal/ftl [repro/internal/ftl.test]";
// Deps names the variants it was compiled against.
type listed struct {
	Dir, ImportPath, Export string
	GoFiles, Deps           []string
	Standard, DepOnly       bool
}

// TestTree lists both modules, type-checks every package variant against the
// compiler's export data and fails on any finding of either rule.
func TestTree(t *testing.T) {
	for _, dir := range []string{"../..", "../../bench"} {
		found, checked := lintTree(t, dir)
		for _, f := range found {
			t.Error(f)
		}
		t.Logf("%s: %d package variants checked", dir, checked)
		if checked == 0 {
			t.Errorf("go list in %s named no package to check", dir)
		}
	}
}

// buildTags are the builds a tree is listed under: the default one, and the
// sanitizer's, whose files (internal/ftl's sanitize_on.go, internal/core's
// slab_ftlsan.go) the default build leaves out.
var buildTags = []string{"", "ftlsan"}

// lintTree lists the module in dir under each of buildTags, type-checks every
// package variant of each listing and returns the findings, each once, and
// how many variants it checked.
func lintTree(t *testing.T, dir string) (found []string, checked int) {
	t.Helper()
	seen := make(map[string]bool)
	for _, tags := range buildTags {
		args := []string{"list", "-C", dir, "-deps", "-test", "-export", "-json"}
		if tags != "" {
			args = append(args, "-tags", tags)
		}
		var stderr bytes.Buffer
		cmd := exec.Command("go", append(args, "./...")...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -tags %q in %s: %v\n%s", tags, dir, err, stderr.Bytes())
		}
		var pkgs []*listed
		byID := make(map[string]*listed)
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listed)
			if err := dec.Decode(p); err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, p)
			byID[p.ImportPath] = p
		}
		for _, p := range pkgs {
			path := pathOf(p.ImportPath)
			// A package's test variant holds its non-test files too; a
			// package's .test is the generated main.
			if p.Standard || p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") || p.ImportPath == path && byID[path+" ["+path+".test]"] != nil {
				continue
			}
			export := make(map[string]string, len(p.Deps))
			for _, d := range p.Deps {
				export[pathOf(d)] = byID[d].Export
			}
			fset := token.NewFileSet()
			imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
				return os.Open(export[path])
			})
			// Reading the directory puts its listing in the test cache's key,
			// so a file added to the package reruns the test.
			if _, err := os.ReadDir(p.Dir); err != nil {
				t.Fatal(err)
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			_, vfound, err := check(fset, path, files, imp)
			if err != nil {
				t.Fatalf("%s: %v", p.ImportPath, err)
			}
			for _, f := range vfound {
				if !seen[f] {
					seen[f] = true
					found = append(found, f)
				}
			}
			checked++
		}
	}
	return found, checked
}

// pathOf strips a package variant's ID down to its import path.
func pathOf(id string) string {
	path, _, _ := strings.Cut(id, " ")
	return path
}

// check type-checks one package and returns its findings, each as
// "file:line:col: message".
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, []string, error) {
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	var found []string
	report := func(n ast.Node, format string, args ...any) {
		found = append(found, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
	}
	for _, f := range files {
		banned := policed.MatchString(path) && !strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap && banned {
					report(n, "range over map %s on the simulation path: its order is random; walk a structure kept in order", types.ExprString(n.X))
				}
			case *ast.SwitchStmt:
				if missing := missingOps(info, n); len(missing) > 0 {
					report(n, "switch on trace.Op is not exhaustive: missing %s (add the cases or a default clause)", strings.Join(missing, ", "))
				}
			}
			return true
		})
	}
	return pkg, found, nil
}

// missingOps returns, in value order, the op constants a switch over a
// trace.Op leaves out; nil for any other switch and for one with a default.
func missingOps(info *types.Info, sw *ast.SwitchStmt) []string {
	if sw.Tag == nil {
		return nil
	}
	named, ok := info.TypeOf(sw.Tag).(*types.Named)
	if !ok || named.Obj().Name() != "Op" || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "trace" {
		return nil
	}
	covered := make(map[int64]bool)
	for _, stmt := range sw.Body.List {
		clause := stmt.(*ast.CaseClause)
		if clause.List == nil {
			return nil
		}
		for _, e := range clause.List {
			if v := info.Types[e].Value; v != nil && v.Kind() == constant.Int {
				n, _ := constant.Int64Val(v)
				covered[n] = true
			}
		}
	}
	var ops []*types.Const
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && name != "NumOps" && types.Identical(c.Type(), named) {
			if v, _ := constant.Int64Val(c.Val()); !covered[v] {
				ops = append(ops, c)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return constant.Compare(ops[i].Val(), token.LSS, ops[j].Val()) })
	var missing []string
	for _, c := range ops {
		missing = append(missing, c.Name())
	}
	return missing
}
