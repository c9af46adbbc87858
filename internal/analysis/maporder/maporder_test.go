package maporder_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/registry"
)

// analyzer resolves maporder through the registry: being registered is part
// of what this test proves.
func analyzer(t *testing.T) *analysis.Analyzer {
	t.Helper()
	a := registry.Get("maporder")
	if a == nil {
		t.Fatal("maporder is not registered in internal/analysis/registry")
	}
	return a
}

// TestMapOrder covers the rule: every map range in a policed package's
// non-test files is a finding, //lint:ignore does not mute it, and test
// files and packages off the simulation path are not checked.
func TestMapOrder(t *testing.T) {
	for _, pkg := range []string{"repro/internal/ftl/a", "repro/internal/sim", "repro/internal/flashy"} {
		analysistest.Run(t, "testdata", analyzer(t), pkg)
	}
}

// TestTPFTLHistoricalBug reconstructs TPFTL's map-ordered GC flush: the
// buggy shape is flagged and the ascending-vtpn walk is not.
func TestTPFTLHistoricalBug(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t), "repro/internal/core")
}

// TestSFTLHistoricalBug reconstructs S-FTL's map-ordered argmax: the buggy
// shape is flagged and the walk of a per-vtpn store is not.
func TestSFTLHistoricalBug(t *testing.T) {
	analysistest.Run(t, "testdata", analyzer(t), "repro/internal/ftl/sftl")
}
