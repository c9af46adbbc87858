//go:build ftlsan

package core

import (
	"strings"
	"testing"

	"repro/internal/ftl"
)

// TestSanitizerDetectsAccountingCorruption injects exactly the bug class the
// fault-injection PR flushed out — cache-accounting counters skewed outside
// the accounting helpers — and asserts the very next host operation fails
// with an ftlsan-attributed error instead of the run silently continuing on
// a wrong cache budget.
func TestSanitizerDetectsAccountingCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(*FTL)
	}{
		// The PR-1 double-charge shape: used drifts from what the
		// structures it summarizes actually cost.
		{"used", func(f *FTL) { f.used += f.entryBytes }},
		// The entry population counter drifts from the lists.
		{"entries", func(f *FTL) { f.entries++ }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			d, tr := newTPFTLDevice(t, Config{}, 4<<10)
			for i := int64(0); i < 32; i++ {
				if _, err := d.Serve(wr(i*1000, i%19)); err != nil {
					t.Fatal(err)
				}
			}
			c.corrupt(tr)
			_, err := d.Serve(wr(1_000_000, 3))
			if err == nil {
				t.Fatalf("sanitizer missed injected %s corruption", c.name)
			}
			if !strings.Contains(err.Error(), "ftlsan[") {
				t.Fatalf("error not attributed to the sanitizer: %v", err)
			}
		})
	}
}

// TestSanitizerCatchesTPNodeReleasedWithLiveSlot: a TP node is recycled with
// its offset table as it is, on the promise that removeEntry zeroed every
// slot. The release-time audit checks the promise: a node released with a
// slot still naming a slab position must fail the next CheckInvariants, or
// the node's next owner would "hit" on an entry it never installed.
func TestSanitizerCatchesTPNodeReleasedWithLiveSlot(t *testing.T) {
	f := New(Config{CacheBytes: 1 << 10, CompressEntries: true})
	env := &stubEnv{ePerTP: 16, lpns: 64}
	for _, lpn := range []ftl.LPN{1, 17} {
		if _, err := f.Translate(env, lpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tp := f.byVTPN[1]
	tp.byOff[5] = tp.byOff[1] // a second slot naming the node's only entry
	f.Discard(17)             // empties and releases the node
	err := f.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "released with live slot at offset 5") {
		t.Fatalf("release audit missed the stale slot: %v", err)
	}
}
