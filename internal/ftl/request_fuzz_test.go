package ftl_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ftl/dftl"
	"repro/internal/trace"
)

// FuzzDeviceRequests drives arbitrary requests — any op byte, any offset and
// length, in range or not, page-aligned or not — through Device.Serve on
// TPFTL and DFTL. Every request must succeed or be refused with
// ftl.ErrBadRequest: no host input may panic (flash's range checks panic) or
// fail the device, and the device must pass CheckConsistency after the
// sequence. Seventeen bytes a request: the op, then offset and length as
// little-endian int64s, which the seeds keep near the device's capacity.
func FuzzDeviceRequests(f *testing.F) {
	cfg := tpopsConfig(4 * 128)
	capacity := cfg.LogicalBytes
	seed := func(reqs ...[3]int64) []byte {
		var b []byte
		for _, r := range reqs {
			b = append(b, byte(r[0]))
			b = binary.LittleEndian.AppendUint64(b, uint64(r[1]))
			b = binary.LittleEndian.AppendUint64(b, uint64(r[2]))
		}
		return b
	}
	write, read, fua, trim, flush := int64(trace.OpWrite), int64(trace.OpRead), int64(trace.OpWriteFUA), int64(trace.OpTrim), int64(trace.OpFlush)
	f.Add(seed([3]int64{write, 0, 4096}, [3]int64{read, 100, 1}, [3]int64{trim, 700, 3000}, [3]int64{flush, 0, 0}))
	f.Add(seed([3]int64{write, capacity - 512, 512}, [3]int64{read, capacity - 1, 2}, [3]int64{fua, capacity, 1}))
	f.Add(seed([3]int64{trim, 0, capacity}, [3]int64{read, 0, capacity}, [3]int64{write, -1, 512}, [3]int64{read, 5, 0}))
	f.Add(seed([3]int64{write, math.MaxInt64 - 10, 20}, [3]int64{9, 0, 512}, [3]int64{flush, 512, 512}, [3]int64{trim, 1, -7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []trace.Request
		for i := 0; i+17 <= len(data) && len(reqs) < 200; i += 17 {
			reqs = append(reqs, trace.Request{
				Arrival: int64(len(reqs)) * 10_000,
				Op:      trace.Op(data[i]),
				Offset:  int64(binary.LittleEndian.Uint64(data[i+1:])),
				Length:  int64(binary.LittleEndian.Uint64(data[i+9:])),
			})
		}
		for _, tr := range []ftl.Translator{
			core.New(core.DefaultConfig(cfg.CacheBytes)),
			dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes}),
		} {
			d := newTPOpsDevice(t, cfg, tr, true)
			for i, r := range reqs {
				if _, err := d.Serve(r); err != nil && !errors.Is(err, ftl.ErrBadRequest) {
					t.Fatalf("%s: request %d %+v: %v", tr.Name(), i, r, err)
				}
			}
			dirty := tr.(ftl.DirtyLister).DirtyCached()
			if err := d.CheckConsistency(dirty); err != nil {
				t.Fatalf("%s: %v", tr.Name(), err)
			}
		}
	})
}
