package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetToolEndToEnd builds ftlint and drives it the one way it is meant to
// be driven — `go vet -vettool` — over a throw-away stdlib-only module laid
// out like this one. It pins the whole chain `make lint` relies on: the
// -flags/-V=full handshake, per-unit analysis including _test.go files,
// //lint:ignore suppression, the map-range ban that no directive mutes, the
// file:line diagnostics and the failing exit status.
func TestVetToolEndToEnd(t *testing.T) {
	tool := filepath.Join(t.TempDir(), "ftlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ftlint: %v\n%s", err, out)
	}

	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("ftlint -flags: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Errorf("ftlint -flags printed %q, want an empty JSON list", got)
	}

	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/trace/trace.go": `package trace

type Op uint8

const (
	OpRead Op = iota
	OpWrite
)
`,
		"internal/ftl/probe.go": `package ftl

import "repro/internal/trace"

func Loud(op trace.Op, m map[int]int, emit func(int)) {
	switch op {
	case trace.OpRead:
	}
	for k := range m {
		emit(k)
	}
}

//lint:file-ignore maporder probe: the ban has no waiver

func Quiet(op trace.Op, m map[int]int, emit func(int)) {
	//lint:ignore opswitch probe: a reviewed, reason-carrying suppression
	switch op {
	case trace.OpRead:
	}
	for k := range m {
		emit(k)
	}
}
`,
		"internal/ftl/probe_test.go": `package ftl

//lint:ignore opswitch
var _ = Loud
`,
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	vet.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod")
	raw, err := vet.CombinedOutput()
	report := string(raw)
	if _, failed := err.(*exec.ExitError); !failed {
		t.Fatalf("go vet -vettool over a module with findings: err = %v, want a non-zero exit\n%s", err, report)
	}
	for _, want := range []string{
		"probe.go:6:2: switch on trace.Op is not exhaustive: missing OpWrite",
		"(opswitch)",
		"probe.go:9:2: range over map m",
		"probe.go:21:2: range over map m",
		"(maporder)",
		"probe_test.go:3:1: malformed suppression directive",
		"(lintdirective)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("vet output lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "probe.go:18") {
		t.Errorf("the //lint:ignore'd switch was reported:\n%s", report)
	}
}
