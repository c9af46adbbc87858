package hotalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/registry"
)

// TestHotAlloc resolves the analyzer through the registry: being registered —
// and therefore run by cmd/ftlint — is part of what the test proves.
func TestHotAlloc(t *testing.T) {
	a := registry.Get("hotalloc")
	if a == nil {
		t.Fatal("hotalloc is not registered in internal/analysis/registry")
	}
	analysistest.Run(t, "testdata", a, "hot")
	analysistest.Run(t, "testdata", a, "chip") // package flash is policed too
}
