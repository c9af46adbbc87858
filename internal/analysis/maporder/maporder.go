// Package maporder bans ranging over a map on the simulation path.
//
// This codebase shipped the same bug twice. TPFTL's OnGCDataMoves grouped
// GC map updates in a `map[VTPN][]EntryUpdate` and ranged over it calling
// env.WriteTP per key, and S-FTL picked its buffer flush victim by an argmax
// over a map whose ties broke by iteration order. Either way the
// translation-page write order, and with it physical allocation and the
// whole downstream schedule, permuted from run to run.
//
// The rule is syntactic: no `range` over a map-typed operand in the non-test
// files of the packages whose state reaches flash (Policed). Those packages
// walk a structure they keep in order instead (an LRU list, a bitmap, a
// per-VTPN slice); a map that is only looked up has no order and stays.
// There is no waiver, and //lint:ignore does not silence this analyzer.
package maporder

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// Analyzer flags every range over a map in a policed package.
var Analyzer = &analysis.Analyzer{
	Name:     "maporder",
	Doc:      "no range over a map in the non-test files of the simulation packages: walk a structure kept in order",
	Run:      run,
	NoIgnore: true,
}

// Policed matches the import paths of the packages, with their subpackages
// and test variants, whose state reaches flash.
var Policed = regexp.MustCompile(`^repro/internal/(flash|ftl|core|lru|buffer|ssd|host)([/ ]|$)`)

func run(pass *analysis.Pass) (any, error) {
	if !Policed.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypesInfo.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(rs.Pos(), "range over map %s on the simulation path: its order is random; walk a structure kept in order", types.ExprString(rs.X))
				}
			}
			return true
		})
	}
	return nil, nil
}
