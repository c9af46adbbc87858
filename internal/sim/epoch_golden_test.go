package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs/live"
)

// TestEpochExportGolden pins the bytes both epoch consumers write: the
// -metrics-out JSONL stream of a measured TPFTL run on one die at QD 1, on
// 4 channels × 2 dies at QD 8, and on one die with no warm-up at all; and the
// Prometheus exposition a plane holds once a run is over, at one shard and at
// two. The exposition carries every epoch count, clock and counter total of
// the run, warm-up fold included, and no progress view, so it is a pure
// function of the simulation. A change to how epochs are built, numbered or
// folded shows here as a new hash.
func TestEpochExportGolden(t *testing.T) {
	jsonl := []struct {
		name string
		mod  func(*Options)
		want string
	}{
		{"1x1-qd1", func(*Options) {}, "262c7e1ebef59a03c255d318713c60cd4dd66940dfccd5b003410fe87d162adf"},
		{"4x2-qd8", func(o *Options) { o.Channels, o.Dies, o.QueueDepth = 4, 2, 8 }, "65b5874a716f47b9f34b3fba85dd8649fbaea62c97123be4b7b9fc3f693a8a6b"},
		// Armed on a device fresh from Format, with no warm-up reset before.
		{"1x1-qd1-cold", func(o *Options) { o.Precondition, o.ResetAfterWarmup = 0, 0 }, "566a16b78f637aba5de9407ce6fae45d0595efc016bf28287125709ecd9065be"},
	}
	for _, c := range jsonl {
		t.Run("jsonl-"+c.name, func(t *testing.T) {
			var out bytes.Buffer
			o := goldenOptions(SchemeTPFTL)
			o.MetricsOut = &out
			o.MetricsInterval = 700
			c.mod(&o)
			if _, err := Run(o); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(out.Bytes()); got != c.want {
				t.Errorf("-metrics-out sha256 %s, want %s (%d lines)", got, c.want, bytes.Count(out.Bytes(), []byte("\n")))
			}
		})
	}

	prom := []struct {
		name string
		mod  func(*Options)
		want string
	}{
		{"shards1", func(*Options) {}, "33973bcd4ee39020af6cca6f7ccaac417384a678321e108b63d5637b697230c1"},
		{"shards2", func(o *Options) { o.Shards, o.Clients, o.QueueDepth = 2, 2, 8 }, "4a7dbeab62d98533592938981c4c96c5eeeb9b2b1fca45298f69b2ccfee1bca8"},
	}
	for _, c := range prom {
		t.Run("prometheus-"+c.name, func(t *testing.T) {
			plane := live.NewPlane(100, 16)
			o := streamTestOptions(SchemeTPFTL)
			o.Telemetry = plane
			c.mod(&o)
			if _, err := Run(o); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := live.WritePrometheus(&out, plane); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(out.Bytes()); got != c.want {
				t.Errorf("exposition sha256 %s, want %s\n%s", got, c.want, out.Bytes())
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
