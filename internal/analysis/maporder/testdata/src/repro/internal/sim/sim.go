// Package sim is outside the ban: the harness ranges over maps to check and
// report, never to drive flash state.
package sim

func count(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
