package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceSrc stands in for repro/internal/trace: the rule finds the op
// constants in the scope of the package that declares Op.
const traceSrc = `package trace

type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpWriteFUA
	OpTrim
	OpFlush
	NumOps
)
`

// expect type-checks one in-memory file as package path, with the code that
// checks the tree, and wants one finding per want, in order, that starts
// with it.
func expect(t *testing.T, path, name, src string, want ...string) {
	t.Helper()
	fset := token.NewFileSet()
	parse := func(name, src string) []*ast.File {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return []*ast.File{f}
	}
	tracePkg, _, err := check(fset, "repro/internal/trace", parse("trace.go", traceSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := importerFunc(func(string) (*types.Package, error) { return tracePkg, nil })
	_, got, err := check(fset, path, parse(name, src), imp)
	if err != nil {
		t.Fatal(err)
	}
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(got[i], want[i])
	}
	if !ok {
		t.Errorf("%s %s:\n got  %q\n want %q", path, name, got, want)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestTPFTLHistoricalBug rebuilds TPFTL's GC batch update as it once was: the
// map updates grouped per translation page in a map, written in map order.
func TestTPFTLHistoricalBug(t *testing.T) {
	expect(t, "repro/internal/core", "tpftl.go", `package core

type VTPN int32

type EntryUpdate struct{ Off, PPN int }

func OnGCDataMoves(pending map[VTPN][]EntryUpdate, writeTP func(VTPN, []EntryUpdate)) {
	for v, ups := range pending {
		writeTP(v, ups)
	}
}
`, "tpftl.go:8:2: range over map pending")
}

// TestSFTLHistoricalBug rebuilds S-FTL's flush as it once was: the victim
// group chosen by an argmax over a map, so a tie broke by map order.
func TestSFTLHistoricalBug(t *testing.T) {
	expect(t, "repro/internal/ftl/sftl", "sftl.go", `package sftl

type FTL struct {
	buffer  map[int32]map[int32]int64
	flushed int32
}

func (f *FTL) flushLargestGroup() {
	best := -1
	for v, ents := range f.buffer {
		if len(ents) > best {
			best, f.flushed = len(ents), v
		}
	}
}
`, "sftl.go:10:2: range over map f.buffer")
}

// TestMapOrder: a map that is only looked up, a map range in a test file
// and one outside the simulation packages are all fine.
func TestMapOrder(t *testing.T) {
	lookup := `package x

func get(m map[int]int, xs []int) (n int) {
	for _, x := range xs {
		n += m[x]
	}
	delete(m, n)
	return n
}
`
	ranged := `package x

func sum(m map[int]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}
`
	expect(t, "repro/internal/ftl", "a.go", lookup)
	expect(t, "repro/internal/ftl", "a_test.go", ranged)
	expect(t, "repro/internal/sim", "sim.go", ranged)
	expect(t, "repro/internal/flashy", "flashy.go", ranged)
	expect(t, "repro/internal/flash", "flash.go", ranged, "flash.go:4:2: range over map m")
}

// TestOpSwitch: a switch over trace.Op must list every op but NumOps or
// have a default, in test files and off the simulation path too.
func TestOpSwitch(t *testing.T) {
	src := `package x

import "repro/internal/trace"

func kinds(op trace.Op, n int) {
	switch op {
	case trace.OpRead, trace.OpWrite, trace.OpWriteFUA, trace.OpTrim, trace.OpFlush:
	}
	switch op {
	case trace.OpRead:
	default:
	}
	switch op {
	case trace.OpWrite:
	}
	switch n {
	case 1:
	}
	switch {
	case op == trace.OpRead:
	}
}
`
	expect(t, "repro/internal/sim", "x_test.go", src, "x_test.go:13:2: switch on trace.Op is not exhaustive: missing OpRead, OpWriteFUA, OpTrim, OpFlush")
}

// TestMapOrderInSanitizerBuild: a file built only with -tags ftlsan is
// outside the default build, so a tree listed only that way never parses it.
// lintTree lists the tree under the sanitizer's tag as well: a map range in
// such a file of a policed package is reported, once, and its default-build
// twin is not.
func TestMapOrderInSanitizerBuild(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/core/core.go": `package core

var live = map[int]int{1: 1}
`,
		"internal/core/audit_ftlsan.go": `//go:build ftlsan

package core

func audit() (n int) {
	for _, v := range live {
		n += v
	}
	return n
}
`,
		"internal/core/audit_noftlsan.go": `//go:build !ftlsan

package core

func audit() int { return live[1] }
`,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, _ := lintTree(t, dir)
	if len(found) != 1 || !strings.Contains(found[0], "audit_ftlsan.go:6:2: range over map live") {
		t.Fatalf("findings %q, want the one map range in audit_ftlsan.go", found)
	}
}
