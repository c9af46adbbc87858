// Fixture: package flash is policed too — the chip's operations are where
// every hot path ends.
package flash

type chip struct {
	states []uint8
}

//ftl:hotpath
func (c *chip) read(p int) map[int]bool {
	seen := make(map[int]bool) // want `make\(map\) in hot-path function read`
	seen[p] = c.states[p] != 0
	return seen
}

// Unmarked functions stay unpoliced.
func (c *chip) dump() map[int]uint8 {
	out := make(map[int]uint8)
	for i, s := range c.states {
		out[i] = s
	}
	return out
}
