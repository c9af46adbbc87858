package cacheline

import (
	"testing"
	"unsafe"
)

// hot stands for a per-shard struct whose size puts it in an allocator size
// class that is not a multiple of the line size (208 B, like flash.Chip), so
// plain neighbours would share a line.
type hot struct {
	fields [26]uint64
}

func TestIsolatedValuesShareNoLinePair(t *testing.T) {
	const n = 64
	owner := map[uintptr]int{} // line pair → which value covers it
	keep := make([]*hot, n)
	for i := range keep {
		p := Isolated(hot{fields: [26]uint64{0: uint64(i)}})
		keep[i] = p
		lo := uintptr(unsafe.Pointer(p))
		hi := lo + unsafe.Sizeof(*p) - 1
		for pair := lo / guard; pair <= hi/guard; pair++ {
			if j, taken := owner[pair]; taken {
				t.Fatalf("values %d and %d share the line pair at %#x", j, i, pair*guard)
			}
			owner[pair] = i
		}
	}
	for i, p := range keep {
		if p.fields[0] != uint64(i) {
			t.Fatalf("value %d reads %d: Isolated must return a copy of its argument", i, p.fields[0])
		}
	}
}
