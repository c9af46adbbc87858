// Package analysis is a self-contained static-analysis framework modeled on
// golang.org/x/tools/go/analysis, trimmed to what this repository's ftlint
// checkers need. The x/tools module is deliberately not vendored: the
// repo-specific analyzers only require parsed files plus full type
// information, and the one driver (the `go vet -vettool` protocol in
// unitchecker.go) supplies both with nothing beyond the standard library and
// the go command.
//
// An Analyzer receives one type-checked package per Pass and reports
// Diagnostics through Pass.Report. Analyzers must be stateless across
// passes; per-run configuration lives in exported package variables of the
// analyzer's package (see e.g. maporder.PureCalls).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is a one-paragraph description: what shape is flagged and why.
	Doc string
	// Run executes the check on one package. The returned value is unused
	// by the drivers (kept for parity with x/tools signatures).
	Run func(*Pass) (any, error)
}

// Pass is the unit of work handed to an Analyzer: one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers that
// police simulation state skip tests, which may range over maps in any
// order to check results.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Finding pairs a diagnostic with the analyzer that produced it; drivers
// collect these across analyzers before printing.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// RunAnalyzers executes each analyzer over one type-checked package and
// returns the findings, with //lint:ignore and //lint:file-ignore
// suppressions already applied (malformed directives are returned as
// findings of the pseudo-analyzer "lintdirective"). A nil info or pkg is
// rejected: every ftlint analyzer depends on type information, and running
// without it would silently report nothing.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	if pkg == nil || info == nil {
		return nil, fmt.Errorf("analysis: package not type-checked")
	}
	sup := parseSuppressions(fset, files)
	out := append([]Finding(nil), sup.malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if sup.suppressed(name, pos) {
				return
			}
			out = append(out, Finding{
				Analyzer: name,
				Position: pos,
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return out, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	return out, nil
}

// DirectiveAt looks for a `//<directive> <reason>` comment anchored to the
// source line of pos: trailing on the same line, or a comment on the line
// immediately above. It returns the reason text and whether the directive
// was found at all — analyzers that require a justification treat a found
// directive with an empty reason as its own finding, as maporder does for
// //ftl:orderinsensitive.
func (p *Pass) DirectiveAt(pos token.Pos, directive string) (reason string, found bool) {
	target := p.Fset.Position(pos)
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename != target.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := p.Fset.Position(c.Pos()).Line
				if line != target.Line && line != target.Line-1 {
					continue
				}
				text := strings.TrimSpace(c.Text)
				if text == directive {
					return "", true
				}
				if strings.HasPrefix(text, directive+" ") {
					return strings.TrimSpace(text[len(directive)+1:]), true
				}
			}
		}
	}
	return "", false
}

// NewInfo returns a types.Info with every map the analyzers consult
// populated, so the driver and analysistest type-check identically.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
