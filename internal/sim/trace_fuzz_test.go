package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzTraceReplay drives fuzzed trace text through a device: the native,
// SPC and MSR parsers each read the input, and what one accepts is clamped
// into a 16 MiB space and replayed on TPFTL at one shard and at two. Every
// input either replays, passing Run's post-run consistency check, or is
// refused with ftl.ErrBadRequest; none may panic or hang. The seeds are
// internal/trace's FuzzParseText corpus.
func FuzzTraceReplay(f *testing.F) {
	for _, seed := range parseTextCorpus(f) {
		f.Add(seed)
	}
	const space = 16 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []trace.Format{trace.FormatNative, trace.FormatSPC, trace.FormatMSR} {
			reqs, err := trace.Parse(bytes.NewReader(data), format)
			if err != nil {
				continue
			}
			// A bounded replay per input keeps the fuzzer's pace; each
			// request is at most the whole space after Clamp.
			reqs = trace.Clamp(reqs, space)
			reqs = reqs[:min(len(reqs), 256)]
			for _, shards := range []int{0, 2} {
				_, err := Run(Options{
					Scheme:       SchemeTPFTL,
					Profile:      workload.Financial1(),
					AddressSpace: space,
					Trace:        reqs,
					Shards:       shards,
				})
				if err != nil && !errors.Is(err, ftl.ErrBadRequest) {
					t.Fatalf("format %d, %d shards: %v", format, shards, err)
				}
			}
		}
	})
}

// parseTextCorpus reads the seeds of internal/trace's FuzzParseText, one
// per file.
func parseTextCorpus(f *testing.F) [][]byte {
	paths, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "seeds", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no FuzzParseText seeds: %v", err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}
