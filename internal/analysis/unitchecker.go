// The `go vet -vettool` protocol. When cmd/ftlint is passed to go vet, the
// go command drives it once per compilation unit:
//
//	ftlint -V=full      report an executable identity for build caching
//	ftlint -flags       describe tool flags as JSON (ftlint has none: "[]")
//	ftlint <unit>.cfg   analyze one unit described by a JSON config
//
// The config names the unit's Go files and maps every dependency to the
// export-data file the compiler already produced, so type-checking here needs
// no package loading at all. Diagnostics print to stderr as file:line:col
// lines and a non-zero exit tells go vet the unit failed. This reimplements
// the contract of x/tools' unitchecker (which cmd/vet itself uses) on the
// standard library alone.
package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// UnitConfig is the JSON compilation-unit description written by cmd/go
// (see cmd/go/internal/work.(*Builder).vet). Field names are the protocol;
// only the ones this driver consumes are declared.
type UnitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string // import path as written → package path
	PackageFile               map[string]string // package path → export data file
	Standard                  map[string]bool
	VetxOnly                  bool   // run only to produce facts for importers
	VetxOutput                string // where go vet expects the fact file
	SucceedOnTypecheckFailure bool
}

// PrintVersion implements `ftlint -V=full`. The go command requires the
// second field to be "version" and, for a "devel" version, a trailing
// buildID it can fold into its action cache key; hashing the executable
// itself makes rebuilt tools invalidate stale vet results.
func PrintVersion(progname string) {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", progname, id)
}

// RunUnit analyzes the single compilation unit described by cfgFile and
// returns the process exit code: 0 clean, 1 findings or analyzer failure.
func RunUnit(cfgFile string, analyzers []*Analyzer) int {
	cfg, err := readUnitConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		return 1
	}

	// Fact-only runs exist so fact-based analyzers can see dependencies;
	// ftlint's analyzers keep no cross-package facts, so just satisfy the
	// protocol by producing an (empty) fact file for the cache.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0 // the compiler will report it better
			}
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	exportImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return exportImporter.Import(path)
		}),
		GoVersion: cfg.GoVersion,
	}
	info := NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		return 1
	}

	findings, err := RunAnalyzers(fset, files, pkg, info, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Position, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func readUnitConfig(filename string) (*UnitConfig, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(UnitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
