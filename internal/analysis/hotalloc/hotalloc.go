// Package hotalloc keeps the translation hot path allocation-free.
//
// The zero-allocation work (slab-recycled cache nodes, dense offset tables,
// the hand-rolled event heap, reusable flush scratch buffers) is easy to
// erode: one convenient `map[...]` literal or a fresh `[]T` built with append
// inside the service path quietly reintroduces per-operation garbage, and
// nothing fails until someone reruns the benchmarks. This analyzer makes the
// property structural. Functions on the steady-state service path carry a
//
//	//ftl:hotpath
//
// directive in their doc comment; inside such functions the analyzer flags
//
//   - map allocations (`make(map...)` or a map composite literal) — the
//     pre-optimization code allocated a dedup map per cache miss and a
//     pending map per GC flush;
//   - `append` to a slice that the function itself freshly allocated
//     (`var s []T`, `s := []T{...}`, `s := make([]T, ...)`) — growth
//     allocates every call; hot paths must append into a reusable scratch
//     buffer (`s := f.scratch[:0]` is fine and recognized);
//   - and, file-wide when the file declares any hot-path function, imports
//     of container/heap or container/list — both box every element through
//     `any`, which is exactly what the hand-rolled heap and the generic
//     intrusive list exist to avoid.
//
// Like the other analyzers the checks are scoped to the packages that own
// the hot path (PackageNames); cold paths there simply do not carry the
// directive.
package hotalloc

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags per-call allocations inside //ftl:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "hot-path functions (//ftl:hotpath) must not allocate: no map allocation, no append to a fresh slice, no container/heap or container/list",
	Run:  run,
}

// Directive marks a function as part of the steady-state service path.
var Directive = "//ftl:hotpath"

// PackageNames are the packages the analyzer polices. ftl and obs joined
// when the observability layer put Metrics.ObserveResponse,
// Device.observeRequest and Histogram.Record on the per-request path; flash
// when the chip's four operations were marked, being what every one of those
// paths ends in.
var PackageNames = map[string]bool{"core": true, "ssd": true, "ftl": true, "obs": true, "flash": true}

// BannedImports box elements through `any` on every operation.
var BannedImports = map[string]bool{"container/heap": true, "container/list": true}

func run(pass *analysis.Pass) (any, error) {
	if !PackageNames[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		var hot []*ast.FuncDecl
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && isHotPath(fn) {
				hot = append(hot, fn)
			}
		}
		if len(hot) == 0 {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !BannedImports[path] {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import of %s in a file with hot-path functions: it boxes every element through any; use the non-boxing in-repo equivalent (internal/lru, ssd.EventQueue)",
				path)
		}
		for _, fn := range hot {
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

// isHotPath reports whether fn's doc comment carries the directive.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == Directive {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	// freshSlices are locals whose backing array the function itself
	// allocated; appending to them grows per-call garbage. Locals derived
	// from existing storage (x := f.scratch[:0]) are reuse, not allocation.
	// Tracking is by name in source order, which is sound for the directive
	// functions this repo writes (no shadowing across nested scopes).
	freshSlices := map[string]bool{}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != 0 {
						continue
					}
					if at, ok := vs.Type.(*ast.ArrayType); ok && at.Len == nil {
						for _, name := range vs.Names {
							freshSlices[name.Name] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				switch {
				case isFreshSliceExpr(n.Rhs[i]):
					freshSlices[id.Name] = true
				case n.Tok == token.DEFINE:
					// A define from existing storage is reuse.
					delete(freshSlices, id.Name)
				}
			}
		case *ast.CompositeLit:
			if _, ok := n.Type.(*ast.MapType); ok {
				pass.Reportf(n.Pos(),
					"map literal in hot-path function %s: maps allocate per call; use a dense table or reusable scratch",
					fn.Name.Name)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "make":
					if len(n.Args) > 0 {
						if _, ok := n.Args[0].(*ast.MapType); ok {
							pass.Reportf(n.Pos(),
								"make(map) in hot-path function %s: maps allocate per call; use a dense table or reusable scratch",
								fn.Name.Name)
						}
					}
				case "append":
					if len(n.Args) > 0 {
						if target, ok := n.Args[0].(*ast.Ident); ok && freshSlices[target.Name] {
							pass.Reportf(n.Pos(),
								"append to fresh slice %s in hot-path function %s: growth allocates per call; append into a reusable scratch buffer",
								target.Name, fn.Name.Name)
						}
					}
				}
			}
		}
		return true
	})
}

// isFreshSliceExpr reports whether e allocates a new slice backing array.
func isFreshSliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) == 0 {
			return false
		}
		at, ok := e.Args[0].(*ast.ArrayType)
		return ok && at.Len == nil
	case *ast.CompositeLit:
		at, ok := e.Type.(*ast.ArrayType)
		return ok && at.Len == nil // fixed-size arrays live on the stack
	}
	return false
}
