//go:build race || ftlsan

package host

// See allocguard_on_test.go.
const allocGuardsEnabled = false
