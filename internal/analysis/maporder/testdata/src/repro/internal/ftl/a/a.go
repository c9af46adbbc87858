// Package a exercises the ban in a policed package: every range over a
// map-typed operand is a finding, however commutative its body, and no
// directive silences it. Lookups and ranges over anything else are fine.
package a

//lint:file-ignore maporder a reason does not mute a ban

type set map[int]bool

func ranges(m map[int]int, s set, xs []int, ch chan int) int {
	n := 0
	for range m { // want `range over map m`
		n++
	}
	for k := range s { // want `range over map s`
		n += k
	}
	for k, v := range m { // want `range over map m`
		n += k * v
	}
	for _, x := range xs {
		n += m[x]
	}
	for x := range ch {
		n += x
	}
	if s[n] {
		delete(m, n)
	}
	return n
}
