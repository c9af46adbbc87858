// Package flashy only shares a prefix with a policed package.
package flashy

func count(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
