// Package maporder proves that no unordered map iteration feeds simulation
// state.
//
// This codebase has shipped the same bug twice. TPFTL's OnGCDataMoves
// grouped GC map updates in a `map[VTPN][]EntryUpdate` and ranged over it
// calling env.WriteTP per key: the write order — and with it physical page
// allocation, die assignment and the whole downstream schedule — permuted
// run to run. S-FTL's flush path did the identical thing with its dirty
// page set. Both cost a PR to diagnose by hand because the EventHash
// determinism tests only spot-check whole runs; this analyzer makes the
// property mechanical before the sharded frontend multiplies every map by
// N goroutines.
//
// For every `range` over a map-typed operand, the loop body is lowered
// through the internal/analysis/dataflow engine with the iteration key and
// value seeded as tainted, and every statement's reaching taint is
// inspected for order-sensitive escapes:
//
//   - a call whose argument or receiver carries an iteration-derived value
//     (the historical shape: env.WriteTP(v, ups) per key);
//   - assignment of an iteration-derived value to a variable, field, slice
//     slot or pointer target that outlives the iteration (last writer wins
//     by map order);
//   - append of an iteration-derived value to a slice declared outside the
//     loop (the slice's element order becomes map order);
//   - a channel send of an iteration-derived value;
//   - a return of an iteration-derived value (which key returns first is
//     map order);
//   - floating-point or string accumulation (+= is not order-insensitive
//     for those operand types).
//
// Loops that are provably order-insensitive are not flagged:
//
//   - writes into a map or slice indexed by the iteration key, and
//     delete(m, k) — distinct keys hit distinct slots;
//   - integer/bitwise accumulation (+=, -=, |=, &=, ^=, ++, --) and
//     monotone boolean folds (ok = ok || p(k)) — commutative;
//   - pure max/min folds: `acc = x` directly guarded by `if x > acc` —
//     idempotent and commutative (a payload-carrying argmax is NOT: its
//     ties break by map order, so the payload assignment stays flagged);
//   - mutation through the iteration value itself (tp.dirty = 0): each
//     iteration touches its own element;
//   - assignments to variables declared inside the loop body;
//   - the collect-then-sort idiom: appends into a slice that a sort call
//     (sort.*, slices.*, or any Sort* helper such as ftl.SortUpdates)
//     normalizes after the loop in the same block;
//   - calls to sort functions, pure builtins (len, cap, min, max, delete),
//     type conversions, and the known side-effect-free helpers in PureCalls
//     (ftl.VTPNOf, fmt.Errorf, ...) — their results stay tainted;
//   - returning an error: the call that produced it was already judged.
//
// Anything else needs either a real fix — collect the keys or the updates
// and sort them (slices.Sort, ftl.SortUpdates) — or the explicit annotation
//
//	//ftl:orderinsensitive <why the loop commutes>
//
// on the `for` line or the line above. The reason is mandatory; an
// annotation without one is itself a finding.
package maporder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer flags order-sensitive range-over-map loops.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "range over a map must not feed simulation state in iteration order: sort the keys, use a provably commutative body, or annotate //ftl:orderinsensitive <reason>",
	Run:  run,
}

// Directive marks a loop the author asserts is order-insensitive.
var Directive = "//ftl:orderinsensitive"

// ExcludedPathPrefixes are import paths not policed: the analysis tooling
// itself (driver output is sorted before printing; iteration order there
// cannot reach simulation state).
var ExcludedPathPrefixes = []string{"repro/internal/analysis"}

// SortCallPackages are packages whose calls normalize order.
var SortCallPackages = map[string]bool{"sort": true, "slices": true}

// pureBuiltins neither retain nor order their arguments.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "delete": true, "min": true, "max": true,
	"make": true, "new": true, "panic": true, "print": true, "println": true,
}

// PureCalls lists side-effect-free functions by package name: calling them
// per iteration makes nothing observable. Their results stay tainted — the
// dataflow engine propagates through call results, so an escape of the
// returned value is still caught at the escape site.
var PureCalls = map[string]map[string]bool{
	"ftl": {"VTPNOf": true, "OffOf": true},
	"fmt": {"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true},
}

func run(pass *analysis.Pass) (any, error) {
	for _, p := range ExcludedPathPrefixes {
		if strings.HasPrefix(pass.Pkg.Path(), p) {
			return nil, nil
		}
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			walkStmtLists(fn.Body.List, nil, func(list []ast.Stmt, i int, tail []ast.Stmt) {
				if rs, ok := list[i].(*ast.RangeStmt); ok {
					rest := append(append([]ast.Stmt{}, list[i+1:]...), tail...)
					checkLoop(pass, rs, rest)
				}
			})
		}
	}
	return nil, nil
}

// walkStmtLists visits every statement together with its enclosing list and
// the statement tail of every enclosing block, so checkLoop can see what
// follows a loop — directly or after leaving a nested block — for the
// collect-then-sort idiom (`for ... { ups = append(ups, ...) }` inside an
// if, with ftl.SortUpdates(ups) after the if).
func walkStmtLists(list, tail []ast.Stmt, visit func(list []ast.Stmt, i int, tail []ast.Stmt)) {
	for i, st := range list {
		visit(list, i, tail)
		childTail := append(append([]ast.Stmt{}, list[i+1:]...), tail...)
		switch s := st.(type) {
		case *ast.BlockStmt:
			walkStmtLists(s.List, childTail, visit)
		case *ast.IfStmt:
			walkStmtLists(s.Body.List, childTail, visit)
			if s.Else != nil {
				walkStmtLists([]ast.Stmt{s.Else}, childTail, visit)
			}
		case *ast.ForStmt:
			walkStmtLists(s.Body.List, childTail, visit)
		case *ast.RangeStmt:
			walkStmtLists(s.Body.List, childTail, visit)
		case *ast.SwitchStmt:
			walkStmtLists(s.Body.List, childTail, visit)
		case *ast.TypeSwitchStmt:
			walkStmtLists(s.Body.List, childTail, visit)
		case *ast.SelectStmt:
			walkStmtLists(s.Body.List, childTail, visit)
		case *ast.CaseClause:
			walkStmtLists(s.Body, childTail, visit)
		case *ast.CommClause:
			walkStmtLists(s.Body, childTail, visit)
		case *ast.LabeledStmt:
			walkStmtLists([]ast.Stmt{s.Stmt}, childTail, visit)
		}
	}
}

// checkLoop analyzes one range statement; rest is the statement tail of the
// loop's enclosing block (for sort-after-collect detection).
func checkLoop(pass *analysis.Pass, loop *ast.RangeStmt, rest []ast.Stmt) {
	tv, ok := pass.TypesInfo.Types[loop.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Map); !ok {
		return
	}
	if reason, found := pass.DirectiveAt(loop.Pos(), Directive); found {
		if reason == "" {
			pass.Reportf(loop.Pos(),
				"%s annotation without a reason: state why this loop commutes", Directive)
		}
		return
	}

	var seeds []types.Object
	for _, e := range []ast.Expr{loop.Key, loop.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			seeds = append(seeds, pass.TypesInfo.Defs[id])
		}
	}
	if len(seeds) == 0 {
		// for range m {} — a bare counting loop cannot leak order through
		// bindings; calls inside can still leak via closure state, which
		// the sweep has never seen. Keep it cheap: skip.
		return
	}

	c := &checker{pass: pass, loop: loop, rest: rest}
	c.res = dataflow.Run(loop.Body, pass.TypesInfo, seeds)
	c.walkBody(loop.Body.List)
}

type checker struct {
	pass *analysis.Pass
	loop *ast.RangeStmt
	rest []ast.Stmt
	res  *dataflow.Result

	// conds is the stack of enclosing if-conditions at the statement being
	// checked, for monotone-extremum recognition.
	conds []ast.Expr
}

// tainted reports whether e carries an iteration-derived value at st.
func (c *checker) tainted(e ast.Expr, st ast.Stmt) bool {
	s := c.res.At(st)
	return s != nil && c.res.TaintedExpr(e, s)
}

func (c *checker) walkBody(stmts []ast.Stmt) {
	for _, st := range stmts {
		c.checkStmt(st)
		switch s := st.(type) {
		case *ast.BlockStmt:
			c.walkBody(s.List)
		case *ast.IfStmt:
			if s.Init != nil {
				c.checkStmt(s.Init)
			}
			c.conds = append(c.conds, s.Cond)
			c.walkBody(s.Body.List)
			c.conds = c.conds[:len(c.conds)-1]
			if s.Else != nil {
				c.walkBody([]ast.Stmt{s.Else})
			}
		case *ast.ForStmt:
			c.walkBody(s.Body.List)
		case *ast.RangeStmt:
			c.walkBody(s.Body.List)
		case *ast.SwitchStmt:
			c.walkBody(s.Body.List)
		case *ast.TypeSwitchStmt:
			c.walkBody(s.Body.List)
		case *ast.SelectStmt:
			c.walkBody(s.Body.List)
		case *ast.CaseClause:
			c.walkBody(s.Body)
		case *ast.CommClause:
			c.walkBody(s.Body)
		case *ast.LabeledStmt:
			c.walkBody([]ast.Stmt{s.Stmt})
		}
	}
}

// checkStmt classifies one statement's own effects (nested statements are
// visited separately by walkBody).
func (c *checker) checkStmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		c.checkAssign(s)
		c.scanCalls(st, s.Rhs...)
	case *ast.ExprStmt:
		c.scanCalls(st, s.X)
	case *ast.SendStmt:
		if c.tainted(s.Value, st) {
			c.report(s.Pos(), "sends an iteration-derived value on a channel")
		}
		c.scanCalls(st, s.Chan, s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if isErrorExpr(c.pass, r) {
				// Early-error returns are the idiomatic escape from a loop;
				// the call that produced the error was already judged.
				continue
			}
			if c.tainted(r, st) {
				c.report(s.Pos(), "returns an iteration-derived value (which key returns first is map order)")
				break
			}
		}
		c.scanCalls(st, s.Results...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.scanCalls(st, vs.Values...)
				}
			}
		}
	case *ast.IfStmt:
		c.scanCalls(st, s.Cond)
	case *ast.ForStmt:
		c.scanCalls(st, s.Cond)
	case *ast.SwitchStmt:
		c.scanCalls(st, s.Tag)
	case *ast.TypeSwitchStmt:
		if as, ok := s.Assign.(*ast.AssignStmt); ok {
			c.scanCalls(st, as.Rhs...)
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			c.scanCalls(st, es.X)
		}
	case *ast.RangeStmt:
		c.scanCalls(st, s.X)
	case *ast.DeferStmt:
		c.scanCalls(st, s.Call)
	case *ast.GoStmt:
		c.scanCalls(st, s.Call)
	}
}

// checkAssign applies the write rules to one assignment.
func (c *checker) checkAssign(s *ast.AssignStmt) {
	rhsTaint := func(i int) bool {
		if len(s.Rhs) == len(s.Lhs) {
			return c.tainted(s.Rhs[i], s)
		}
		for _, r := range s.Rhs {
			if c.tainted(r, s) {
				return true
			}
		}
		return false
	}

	for i, lhs := range s.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" || s.Tok == token.DEFINE {
				continue // new binding is loop-local by construction
			}
			obj := c.pass.TypesInfo.Uses[l]
			if obj == nil || c.declaredInLoop(obj) {
				continue
			}
			if !rhsTaint(i) && !(isOpAssign(s.Tok) && c.tainted(l, s)) {
				continue // iteration-independent value: same result any order
			}
			if c.commutativeAssign(s, l, i) {
				continue
			}
			if c.isAppendCollect(s, l, i) {
				continue
			}
			if c.monotoneExtremum(s, l, i) {
				continue
			}
			if call, ok := s.Rhs[min(i, len(s.Rhs)-1)].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					c.report(s.Pos(), "appends an iteration-derived value to %q without sorting afterwards (element order becomes map order)", l.Name)
					continue
				}
			}
			c.report(s.Pos(), "assigns an iteration-derived value to %q, declared outside the loop (last writer wins by map order)", l.Name)

		case *ast.IndexExpr:
			if baseTV, ok := c.pass.TypesInfo.Types[l.X]; ok && baseTV.Type != nil {
				if _, isMap := baseTV.Type.Underlying().(*types.Map); isMap {
					if c.tainted(l.Index, s) {
						continue // keyed by the iteration key: distinct slots commute
					}
					if rhsTaint(i) {
						c.report(s.Pos(), "writes an iteration-derived value to a fixed map key (last writer wins by map order)")
					}
					continue
				}
			}
			if c.tainted(l.X, s) {
				continue // per-iteration element reached through the value
			}
			if c.tainted(l.Index, s) {
				continue // slot selected by the iteration key: distinct slots commute
			}
			if rhsTaint(i) {
				c.report(s.Pos(), "writes an iteration-derived value into a slice shared across iterations")
			}

		case *ast.SelectorExpr:
			if c.tainted(l.X, s) {
				continue // field of the per-iteration element
			}
			if !rhsTaint(i) {
				continue
			}
			if isOpAssign(s.Tok) && c.commutativeOp(s.Tok, l) {
				continue
			}
			c.report(s.Pos(), "stores an iteration-derived value into field %s shared across iterations", exprString(l))

		case *ast.StarExpr:
			if rhsTaint(i) && !c.tainted(l.X, s) {
				c.report(s.Pos(), "stores an iteration-derived value through a pointer shared across iterations")
			}
		}
	}
}

// commutativeAssign recognizes order-insensitive accumulation into an
// outer variable: integer/bitwise op-assign, and monotone boolean folds
// (ok = ok || p(k), ok = ok && p(k)).
func (c *checker) commutativeAssign(s *ast.AssignStmt, l *ast.Ident, i int) bool {
	if isOpAssign(s.Tok) {
		return c.commutativeOp(s.Tok, l)
	}
	if s.Tok != token.ASSIGN || i >= len(s.Rhs) {
		return false
	}
	if be, ok := s.Rhs[i].(*ast.BinaryExpr); ok && (be.Op == token.LOR || be.Op == token.LAND) {
		if x, ok := be.X.(*ast.Ident); ok && x.Name == l.Name {
			return true
		}
		if y, ok := be.Y.(*ast.Ident); ok && y.Name == l.Name {
			return true
		}
	}
	return false
}

// commutativeOp reports whether tok is a commutative accumulation for the
// target's type: integers commute under + - | & ^, floats and strings do
// not.
func (c *checker) commutativeOp(tok token.Token, target ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	var typ types.Type
	if tv, ok := c.pass.TypesInfo.Types[target]; ok && tv.Type != nil {
		typ = tv.Type
	} else if id, ok := target.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			typ = obj.Type()
		}
	}
	if typ == nil {
		return false
	}
	b, ok := typ.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsUnsigned) != 0
}

// isAppendCollect recognizes `outer = append(outer, ...)` where a sort call
// on outer follows the loop in the same block: the collect-then-sort idiom
// this repository uses to fix exactly this bug class (collected keys through
// slices.Sort, a page's updates through ftl.SortUpdates).
func (c *checker) isAppendCollect(s *ast.AssignStmt, l *ast.Ident, i int) bool {
	if i >= len(s.Rhs) {
		return false
	}
	call, ok := s.Rhs[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	obj := c.pass.TypesInfo.Uses[l]
	if obj == nil {
		return false
	}
	for _, st := range c.rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !c.isSortCall(call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// monotoneExtremum recognizes the pure max/min fold: `acc = x` directly
// guarded by `if x > acc` (or <, >=, <=) comparing the same two values.
// Max and min are commutative, associative and idempotent, so the final
// value is independent of iteration order. A payload-carrying argmax
// (`best, bestKey = len(v), k` under `len(v) > best`) clears only the
// compared accumulator; the payload assignment is still flagged, because
// ties there ARE broken by map order.
func (c *checker) monotoneExtremum(s *ast.AssignStmt, l *ast.Ident, i int) bool {
	if s.Tok != token.ASSIGN || i >= len(s.Rhs) {
		return false
	}
	rhs := exprString(s.Rhs[min(i, len(s.Rhs)-1)])
	for _, cond := range c.conds {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok {
			continue
		}
		switch be.Op {
		case token.GTR, token.LSS, token.GEQ, token.LEQ:
		default:
			continue
		}
		x, y := exprString(be.X), exprString(be.Y)
		if (x == rhs && y == l.Name) || (y == rhs && x == l.Name) {
			return true
		}
	}
	return false
}

// isSortCall matches sort.*/slices.* calls and Sort*-named helpers
// (ftl.SortUpdates).
func (c *checker) isSortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "Sort")
	case *ast.SelectorExpr:
		if strings.HasPrefix(fun.Sel.Name, "Sort") {
			return true
		}
		if id, ok := fun.X.(*ast.Ident); ok && SortCallPackages[id.Name] {
			return true
		}
		if fun.Sel.Name == "Sorted" {
			return true
		}
	case *ast.IndexExpr: // generic instantiation: SortKeys[V](m)
		return c.isSortCall(&ast.CallExpr{Fun: fun.X, Args: call.Args})
	}
	return false
}

// scanCalls reports calls that receive iteration-derived arguments or
// receivers. Function literals are not descended into: their bodies run
// under their own flow (sort.Slice comparators being the common case).
func (c *checker) scanCalls(st ast.Stmt, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if c.allowedCall(call) {
				return true // still descend: args may hold nested calls
			}
			// Receiver of a method call counts as an argument.
			var operands []ast.Expr
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				operands = append(operands, sel.X)
			}
			operands = append(operands, call.Args...)
			for _, op := range operands {
				if op != nil && c.tainted(op, st) {
					c.report(call.Pos(), "passes an iteration-derived value to %s (call order becomes map order)", exprString(call.Fun))
					break
				}
			}
			return true
		})
	}
}

// allowedCall filters calls that cannot make iteration order observable:
// pure builtins, type conversions, and order-normalizing sort calls.
func (c *checker) allowedCall(call *ast.CallExpr) bool {
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if id.Name == "append" || pureBuiltins[id.Name] {
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && PureCalls[id.Name][sel.Sel.Name] {
			if _, isPkg := c.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return true
			}
		}
	}
	return c.isSortCall(call)
}

// declaredInLoop reports whether obj's declaration lies inside the loop
// body (including the key/value bindings themselves).
func (c *checker) declaredInLoop(obj types.Object) bool {
	return obj.Pos() >= c.loop.Pos() && obj.Pos() <= c.loop.Body.Rbrace
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	prefix := "range over map " + exprString(c.loop.X) + ": loop body "
	suffix := "; collect then sort (slices.Sort, ftl.SortUpdates) or annotate " + Directive + " <reason>"
	c.pass.Reportf(pos, prefix+format+suffix, args...)
}

// isErrorExpr reports whether e's static type is the built-in error
// interface.
func isErrorExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// isOpAssign reports whether tok is an op-assign (+=, -=, |=, ...), whose
// evaluation reads the target as well as writing it.
func isOpAssign(tok token.Token) bool {
	switch tok {
	case token.ASSIGN, token.DEFINE:
		return false
	}
	return true
}

// exprString renders a (small) expression as source text.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return buf.String()
}
