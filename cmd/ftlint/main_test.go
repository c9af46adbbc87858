package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetToolEndToEnd builds ftlint and drives it the one way it is meant to
// be driven — `go vet -vettool` — over a throw-away stdlib-only module. It
// pins the whole chain `make lint` relies on: the -flags/-V=full handshake,
// per-unit analysis including _test.go files, //lint:ignore suppression, the
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
		"go.mod": "module lintprobe\n\ngo 1.22\n",
		"probe.go": `package lintprobe

func Loud(m map[int]int, emit func(int)) {
	for k := range m {
		emit(k)
	}
}

func Quiet(m map[int]int, emit func(int)) {
	for k := range m {
		//lint:ignore maporder probe: a reviewed, reason-carrying suppression
		emit(k)
	}
}
`,
		"probe_test.go": `package lintprobe

//lint:ignore maporder
var _ = Loud
`,
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o666); err != nil {
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
		"probe.go:5:3: range over map m: loop body passes an iteration-derived value to emit",
		"(maporder)",
		"probe_test.go:3:1: malformed suppression directive",
		"(lintdirective)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("vet output lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "probe.go:12") {
		t.Errorf("the //lint:ignore'd call was reported:\n%s", report)
	}
}
