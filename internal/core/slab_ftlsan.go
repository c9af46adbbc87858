//go:build ftlsan

package core

// slabDeepCheck arms the O(entries-per-TP) release-time audit of each TP
// node's offset table and dirty bitmap. Only the ftlsan build pays for it; the plain build
// still audits the free lists through CheckInvariants.
const slabDeepCheck = true
