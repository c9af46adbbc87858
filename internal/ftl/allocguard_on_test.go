//go:build !race && !ftlsan

package ftl_test

// allocGuardsEnabled arms the AllocsPerRun regression guards. Race-detector
// and ftlsan builds disable them: both instrument every operation with
// allocations the production build does not perform.
const allocGuardsEnabled = true
