// Package cacheline keeps one goroutine's hot state off the cache lines
// another goroutine writes.
//
// The sharded host serves every shard on its own goroutine, and the shards'
// devices are built one after the other, so the allocator hands the second
// shard's chip, block manager, scheduler and translator the heap slots next
// to the first's. Where such a struct's size class is not a multiple of the
// line size, the tail of one shard's struct (operation counters, written on
// every flash operation) and the head of the other's (geometry, read on
// every flash operation) share a line, and the two workers trade it back
// and forth: on the 2-shard mixed2 benchmark replay that cost each worker a
// quarter of its time, and whether it struck depended on which slots the
// heap happened to have free, so the same binary ran in two speeds.
package cacheline

// guard is the dead space on each side of an isolated value: a pair of
// 64-byte lines, because the adjacent-line prefetcher fetches lines in
// aligned pairs and a pair is the unit two cores contend for.
const guard = 128

type isolated[T any] struct {
	_ [guard]byte
	v T
	_ [guard]byte
}

// Isolated returns a pointer to a heap copy of v no part of which shares a
// cache line (or line pair) with any other object, whatever slot the
// allocator picks. It is for the few long-lived structs a shard's worker
// writes on every operation; v must not have been used yet (it is copied).
func Isolated[T any](v T) *T {
	p := &isolated[T]{v: v}
	return &p.v
}
