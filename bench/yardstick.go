package main

import "time"

// The yardstick is a fixed piece of computation that has nothing to do with
// the simulator. The machines this benchmark runs on are shared VMs whose
// speed drifts by tens of percent for minutes at a time (a bare ALU loop
// shows it; the steal counter does not), so even the fastest of a run's
// repeats measures the machine as much as the program: in two A/A runs the
// fastest-of-R throughput of two sets of ten runs of the same code disagreed
// by up to 43 % and 21 %, the figures below by up to 26 % and 10 % (the
// README has the tables). The stamping iterator therefore runs one short
// slice of the yardstick at every Next call — evenly through the very
// interval being timed — and each timed repeat's host times are brought to
// the speed of the reference machine by how fast its slices ran:
//
//	speed    = slices × yardstickSliceRef ÷ total slice time
//	replay   = (replay window − slice time in it) × speed
//	set-up   = (set-up window − slice time in it) × speed
//
// The gated host-time metrics are medians of these over the repeats, and they
// are the only estimate of them the benchmark makes. On a machine as fast as
// the reference, speed is 1 and they are raw times. Changing the kernel, its
// sizes or yardstickSliceRef re-bases every recorded baseline.
//
// The kernel's table fits in L1, which is what makes it a yardstick: a table
// that lives in L2 or L3 is evicted between slices by whatever the simulator
// touched, and the slice then times the simulator's cache footprint (with a
// 4 MiB table the same machine read 0.28 of reference speed under fin1 and
// 1.0 under randread). The price is that it under-corrects: the simulator is
// bound by memory, and in a slow period loses about 1.8 times (in logarithms)
// what this kernel loses.
const (
	yardstickTableWords = 512 // 4 KiB of uint64
	yardstickSteps      = 20_000
	// yardstickSliceRef is one slice's time on the machine the first
	// baseline was recorded on, in its quiet periods.
	yardstickSliceRef = 50 * time.Microsecond
)

type yardstick struct {
	table []uint64
	a, b  uint64 // generator state, carried across slices
	sink  uint64
}

func newYardstick() *yardstick {
	y := &yardstick{table: make([]uint64, yardstickTableWords), a: 88172645463325252, b: 12345}
	x := uint64(1)
	for i := range y.table {
		x = x*6364136223846793005 + 1442695040888963407
		y.table[i] = x >> 11
	}
	return y
}

// slice runs the kernel for yardstickSteps steps and returns how long it
// took: a dependent ALU chain, an independent multiply-add stream, a
// data-dependent load and a branch the predictor cannot learn.
func (y *yardstick) slice() time.Duration {
	start := time.Now()
	a, b, s := y.a, y.b, y.sink
	mask := uint64(len(y.table) - 1)
	for i := 0; i < yardstickSteps; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b = b*6364136223846793005 + 1442695040888963407
		v := y.table[(a^(b>>20))&mask]
		if v&1 != 0 {
			s += v
		} else {
			s ^= b
		}
	}
	y.a, y.b, y.sink = a, b, s
	return time.Since(start)
}
