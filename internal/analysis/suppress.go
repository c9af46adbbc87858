// Suppression directives, honored uniformly by every analyzer because they
// are applied by the driver (RunAnalyzers), not by each analyzer.
//
// Two forms, in the staticcheck style:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//	//lint:file-ignore <analyzer>[,<analyzer>...] <reason>
//
// A line-level directive suppresses findings of the named analyzers on its
// own line (trailing comment) or on the line immediately below (a comment
// line above the offending statement). A file-level directive, wherever it
// appears in the file, suppresses the named analyzers for the whole file.
// The reason is mandatory: a directive without one does not suppress
// anything and is itself reported as a finding under the pseudo-analyzer
// "lintdirective", so a bare mute can never land silently.
//
// An analyzer with NoIgnore set (maporder, a ban with no waiver) is not
// muted by either form.
package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

const (
	ignorePrefix     = "//lint:ignore "
	fileIgnorePrefix = "//lint:file-ignore "
	// DirectiveAnalyzer is the pseudo-analyzer name under which malformed
	// suppression directives are reported.
	DirectiveAnalyzer = "lintdirective"
)

// suppressions is the parsed suppression state of one package.
type suppressions struct {
	// byLine maps file → line → analyzer names suppressed at that line.
	byLine map[string]map[int][]string
	// byFile maps file → analyzer names suppressed file-wide.
	byFile map[string][]string
	// malformed directives, reported as findings.
	malformed []Finding
}

// parseSuppressions scans every comment of the package's files.
func parseSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	sup := &suppressions{
		byLine: make(map[string]map[int][]string),
		byFile: make(map[string][]string),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				var names string
				var fileWide bool
				switch {
				case strings.HasPrefix(text, fileIgnorePrefix):
					names, fileWide = text[len(fileIgnorePrefix):], true
				case strings.HasPrefix(text, ignorePrefix):
					names = text[len(ignorePrefix):]
				case text == strings.TrimSpace(ignorePrefix) || text == strings.TrimSpace(fileIgnorePrefix):
					names = ""
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				list, reason := splitDirective(names)
				if len(list) == 0 || reason == "" {
					sup.malformed = append(sup.malformed, Finding{
						Analyzer: DirectiveAnalyzer,
						Position: pos,
						Message:  "malformed suppression directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				if fileWide {
					sup.byFile[pos.Filename] = append(sup.byFile[pos.Filename], list...)
					continue
				}
				m := sup.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					sup.byLine[pos.Filename] = m
				}
				// The directive covers its own line (trailing form) and the
				// next line (preceding-comment form).
				m[pos.Line] = append(m[pos.Line], list...)
				m[pos.Line+1] = append(m[pos.Line+1], list...)
			}
		}
	}
	return sup
}

// splitDirective splits "name1,name2 the reason text" into names and reason.
func splitDirective(s string) ([]string, string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return nil, ""
	}
	var names []string
	for _, n := range strings.Split(s[:i], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(s[i:])
}

// suppressed reports whether a finding by analyzer at pos is muted.
func (sup *suppressions) suppressed(analyzer string, pos token.Position) bool {
	for _, n := range sup.byFile[pos.Filename] {
		if n == analyzer {
			return true
		}
	}
	for _, n := range sup.byLine[pos.Filename][pos.Line] {
		if n == analyzer {
			return true
		}
	}
	return false
}
