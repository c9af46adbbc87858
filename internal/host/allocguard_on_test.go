//go:build !race && !ftlsan

package host

// allocGuardsEnabled arms the AllocsPerRun regression guards (see
// internal/core/allocguard_on_test.go for the rationale). Race-detector and
// ftlsan builds disable them: both instrument every operation with
// allocations the production build does not perform.
const allocGuardsEnabled = true
