// Command ftlint is this repository's static-analysis suite: two
// repo-specific analyzers for the bug classes no test fails on when they
// come back (non-exhaustive switches over the request-op enum, and
// order-sensitive map iteration). The authoritative analyzer list lives in
// internal/analysis/registry; this command only drives it.
//
// ftlint is a vet tool and nothing else:
//
//	go vet -vettool=$(pwd)/bin/ftlint ./...
//
// go vet invokes it once per compilation unit (so _test.go files are
// covered), findings print to stderr as file:line:col lines, and any finding
// fails the run. There are no flags and no baseline: the one way to tolerate
// a finding is a reviewed `//lint:ignore <analyzer> <reason>` at the site
// (internal/analysis/suppress.go).
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/registry"
)

func main() {
	// The go vet driver protocol: identity, flag description, then one
	// invocation per compilation unit with a JSON config file.
	if len(os.Args) == 2 {
		switch arg := os.Args[1]; {
		case arg == "-V=full" || arg == "--V=full":
			analysis.PrintVersion("ftlint")
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(analysis.RunUnit(arg, registry.All()))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=/abs/path/to/ftlint ./...")
	os.Exit(2)
}
