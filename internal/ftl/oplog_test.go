package ftl

import (
	"testing"
	"unsafe"
)

// TestTimingHalfSharesNoLinePair pins the layout that lets the timing half
// run on a goroutine of its own without trading cache lines with the logical
// half: the timeline sits on line pairs of its own at the end of the Device,
// and the phase histograms it records into the device's Metrics start a line
// pair after the last counter the logical half writes, with every
// per-request field of the Device before them.
func TestTimingHalfSharesNoLinePair(t *testing.T) {
	const pair = 128
	d, err := NewDevice(DefaultConfig(16<<20), nullTranslator{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(p unsafe.Pointer, size uintptr) (lo, hi uintptr) {
		return uintptr(p) / pair, (uintptr(p) + size - 1) / pair
	}
	tlLo, tlHi := pairs(unsafe.Pointer(&d.tl), unsafe.Sizeof(d.tl))
	_, before := pairs(unsafe.Pointer(&d.formatted), unsafe.Sizeof(d.formatted))
	end := (uintptr(unsafe.Pointer(d)) + unsafe.Sizeof(*d)) / pair
	if tlLo <= before || tlHi >= end {
		t.Errorf("the timeline (line pairs %#x–%#x) shares a pair with the Device's other fields (up to %#x) or the object after it (%#x)", tlLo, tlHi, before, end)
	}
	_, lastCounter := pairs(unsafe.Pointer(&d.m.FaultRetries), unsafe.Sizeof(d.m.FaultRetries))
	if phases, _ := pairs(unsafe.Pointer(&d.m.Phases), 1); phases <= lastCounter {
		t.Errorf("Metrics.Phases starts on the line pair of the logical counters (%#x)", phases)
	}
	for name, p := range map[string]unsafe.Pointer{
		"log":         unsafe.Pointer(&d.log),
		"serving":     unsafe.Pointer(&d.serving),
		"reqPrefetch": unsafe.Pointer(&d.reqPrefetch),
	} {
		if uintptr(p) >= uintptr(unsafe.Pointer(&d.m)) {
			t.Errorf("Device.%s, written on every request, lies after the histograms", name)
		}
	}
}

// nullTranslator is the least Translator NewDevice accepts; the layout test
// never serves a request.
type nullTranslator struct{ Translator }

func (nullTranslator) Name() string { return "null" }
