// Package analysistest runs an analyzer over a fixture package and compares
// its diagnostics against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixture layout follows the x/tools convention: the analyzer package keeps
// testdata/src/<pkg>/ directories, each a complete Go package. Imports inside
// a fixture resolve first against sibling directories under testdata/src
// (type-checked from source), then against the standard library via export
// data from `go list -export`. A line expecting a diagnostic carries a
// trailing comment:
//
//	rand.Intn(7) // want `math/rand`
//
// where the backquoted string is a regexp that must match the diagnostic
// message reported on that line. Several `// want` patterns on one line
// expect several diagnostics. Unmatched expectations and unexpected
// diagnostics both fail the test.
package analysistest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes the fixture package testdata/src/<pkg> beneath dir (usually
// the analyzer's own testdata directory) and asserts the diagnostics match
// the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	root := filepath.Join(dir, "src")
	ld := &loader{
		fset: token.NewFileSet(),
		root: root,
		pkgs: make(map[string]*loadedPkg),
	}
	ld.stdImporter = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := stdExportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})

	lp, err := ld.load(pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}

	findings, err := analysis.RunAnalyzers(ld.fset, lp.files, lp.pkg, lp.info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, ld.fset, lp.files, findings)
}

// expectation is one `// want` pattern, keyed by file:line.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, findings []analysis.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range parseWantPatterns(text[idx+len("want "):]) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}

	matched := make([]bool, len(wants))
	for _, fd := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != fd.Position.Filename || w.line != fd.Position.Line {
				continue
			}
			if w.rx.MatchString(fd.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", fd.Position, fd.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// parseWantPatterns extracts the backquoted or double-quoted regexps from the
// tail of a want comment.
func parseWantPatterns(s string) []string {
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if len(s) == 0 {
			return pats
		}
		q := s[0]
		if q != '`' && q != '"' {
			return pats
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			return pats
		}
		pats = append(pats, s[1:1+end])
		s = s[end+2:]
	}
}

// loader type-checks fixture packages, resolving fixture-local imports from
// source and everything else from stdlib export data.
type loader struct {
	fset        *token.FileSet
	root        string
	pkgs        map[string]*loadedPkg
	stdImporter types.Importer
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func (ld *loader) load(path string) (*loadedPkg, error) {
	if lp, ok := ld.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: importerFunc(ld.importPkg)}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	lp := &loadedPkg{files: files, pkg: pkg, info: info}
	ld.pkgs[path] = lp
	return lp, nil
}

func (ld *loader) importPkg(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(ld.root, path)); err == nil {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return ld.stdImporter.Import(path)
}

// stdExportCache memoizes `go list -export` lookups across fixtures.
var stdExportCache = map[string]string{}

func stdExportFile(path string) (string, error) {
	if f, ok := stdExportCache[path]; ok {
		if f == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return f, nil
	}
	cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	file := strings.TrimSpace(stdout.String())
	if err != nil || file == "" {
		stdExportCache[path] = ""
		return "", fmt.Errorf("go list -export %s: %v\n%s", path, err, stderr.String())
	}
	stdExportCache[path] = file
	return file, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
