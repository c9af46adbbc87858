package host

import (
	"reflect"
	"testing"

	"repro/internal/ftl"
)

// TestMetricsMergeAgreesWithUnsplitRun pins the semantic contract behind
// per-shard metric merging: serving a trace in two measured windows on one
// device and merging the window snapshots must reproduce, field for field,
// the metrics of the identical uninterrupted run. This is the property that
// makes Outcome.M comparable with a single-device run's metrics.
func TestMetricsMergeAgreesWithUnsplitRun(t *testing.T) {
	const space = 16 << 20
	base := ftl.DefaultConfig(space)
	reqs := mixedTrace(6, 3000, space, int64(base.PageSize), 1000)

	setup := func() *ftl.Device {
		dev := newTPFTLDevice(t, base)
		pages := base.LogicalPages()
		if err := dev.PreconditionRange(int(pages), pages, 22); err != nil {
			t.Fatal(err)
		}
		dev.ResetMetrics()
		return dev
	}

	whole := setup()
	serveAll(t, whole, reqs)
	want := whole.Metrics()

	split := setup()
	cut := len(reqs) / 3
	serveAll(t, split, reqs[:cut])
	m1 := split.Metrics()
	split.ResetMetrics()
	serveAll(t, split, reqs[cut:])
	m2 := split.Metrics()

	got := m1
	got.Merge(&m2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged window snapshots diverge from the unsplit run:\n got  %+v\n want %+v", got, want)
	}
}
