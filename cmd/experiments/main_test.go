package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs run every experiment at a scale that takes about two seconds.
var goldenArgs = []string{"-exp", "all,ext", "-requests", "10000", "-msrscale", "134217728"}

// goldenJSON is the SHA-256 of the JSON document goldenArgs write.
const goldenJSON = "daf321f516abdb30f908122331583380fe3e5a74f403b369bc57293266b03cc2"

// TestExperimentsGolden pins every value every experiment records: any
// change to a simulated number anywhere in the evaluation changes the hash.
// To see which values moved, run
//
//	go run ./cmd/experiments -exp all,ext -requests 10000 -msrscale 134217728 -json x.json
//
// at this commit and its parent and diff the two files.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	path := filepath.Join(t.TempDir(), "x.json")
	if err := run(append(goldenArgs, "-json", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != goldenJSON {
		t.Fatalf("experiments JSON hash = %s, want %s", got, goldenJSON)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	err := run([]string{"-exp", "fig6,fig66"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"fig66"`) || !strings.Contains(err.Error(), "fig10") {
		t.Fatalf("run -exp fig6,fig66: err = %v, want one naming fig66 and listing the valid names", err)
	}
}

func TestUnwritableJSONIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "x.json")
	if err := run([]string{"-exp", "fig2", "-json", path}, io.Discard); err == nil {
		t.Fatalf("run -json %s: err = nil, want the write error", path)
	}
}
