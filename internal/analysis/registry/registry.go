// Package registry is the single authoritative list of this repository's
// analyzers. Both cmd/ftlint (the go vet tool) and every analyzer's
// fixture test consume it: an analyzer that is written but never
// registered fails its own test, so the list cannot silently drift from
// what `make lint` actually runs.
//
// It is a subpackage rather than part of internal/analysis because the
// framework package must not import the analyzers that import it.
package registry

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/opswitch"
)

var all = []*analysis.Analyzer{
	maporder.Analyzer,
	opswitch.Analyzer,
}

// All returns the full analyzer suite, sorted by name, as a fresh slice.
func All() []*analysis.Analyzer {
	out := append([]*analysis.Analyzer(nil), all...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named analyzer, or nil if it is not registered. Analyzer
// tests resolve themselves through Get so that registration is part of what
// the tests prove.
func Get(name string) *analysis.Analyzer {
	for _, a := range all {
		if a.Name == name {
			return a
		}
	}
	return nil
}
