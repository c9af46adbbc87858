package a

// Tests may range over maps to check results.
func sum(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
