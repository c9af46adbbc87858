//go:build ftlsan

package ftl

import "sync/atomic"

// SanitizerEnabled reports whether this binary was built with -tags ftlsan.
// When true, every Device host operation is followed by the full invariant
// suite (chip bookkeeping, GTD and live-mapping consistency against the
// chip and the persisted view, and the translator's own structural checks),
// and every translated page and GC victim page has its out-of-band tag
// checked, so a corruption is caught at the operation that introduced it
// rather than at the next test assertion.
const SanitizerEnabled = true

var sanitizerChecks atomic.Int64

// SanitizerChecks returns the number of invariant checks the sanitizer has
// executed so far in this process. Tests use it to prove the per-operation
// hooks actually ran.
func SanitizerChecks() int64 { return sanitizerChecks.Load() }

// SanitizeCheck runs each check and wraps the first failure with the
// component name. It is the single funnel every ftlsan hook goes through.
func SanitizeCheck(component string, checks ...func() error) error {
	for _, check := range checks {
		sanitizerChecks.Add(1)
		if err := check(); err != nil {
			return errf("ftlsan[%s]: %w", component, err)
		}
	}
	return nil
}
