//go:build race || ftlsan

package ftl_test

const allocGuardsEnabled = false
