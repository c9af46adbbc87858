package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs run every experiment at a scale that takes about two seconds.
var goldenArgs = []string{"-exp", "all,ext", "-requests", "10000", "-msrscale", "134217728"}

// goldenJSON is the SHA-256 of the JSON document goldenArgs write.
const goldenJSON = "daf321f516abdb30f908122331583380fe3e5a74f403b369bc57293266b03cc2"

// TestExperimentsGolden pins every value every experiment records: any
// change to a simulated number anywhere in the evaluation changes the hash.
// It also checks, on the same JSON, the shapes of the paper's figures that
// the hash alone cannot speak for (checkShapes): a change that moves a number
// on purpose updates the hash, and only those checks say whether the shape
// survived. To see which values moved, run
//
//	go run ./cmd/experiments -exp all,ext -requests 10000 -msrscale 134217728 -json x.json
//
// at this commit and its parent and diff the two files.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	path := filepath.Join(t.TempDir(), "x.json")
	if err := run(append(goldenArgs, "-json", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkShapes(t, blob)
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != goldenJSON {
		t.Fatalf("experiments JSON hash = %s, want %s", got, goldenJSON)
	}
}

// checkShapes asserts the cache sweep's, the ablation's and Fig. 10's shapes
// on the JSON the golden run wrote:
//   - TPFTL's hit ratio never falls as the cache grows, on each workload
//     (Fig. 9a);
//   - Prd is 0 with the whole table cached, and no higher there than at
//     1/128 (Fig. 8c). Prd does not fall monotonically at this scale:
//     Financial2 reads 6.2 % at 1/128 and 6.7 % at 1/64, so only the two
//     ends are compared;
//   - every Fig. 10 improvement of TPFTL over DFTL lies in [0, 0.33]: the
//     6-byte entry caches at most a third more than the 8-byte one;
//   - the §5.2(5) ablation (Figs. 7b/7c/8a): batch update (b) more than
//     halves the bare variant's (–) Prd, and clean-first (c) moves it less
//     than b does; request-level prefetching (r) raises the hit ratio above
//     –'s; – hits at least as often as DFTL; rsbc has the lowest response
//     time of the TPFTL variants. rsbc's Prd is not compared with bc's: at
//     this scale it is above bc's by 0.001, too close to pin.
func checkShapes(t *testing.T, blob []byte) {
	t.Helper()
	var doc struct {
		CacheSweep []struct {
			Workload string
			Fraction float64
			Prd, Hr  float64
		} `json:"cacheSweep"`
		Fig10 []struct {
			Workload    string
			Fraction    float64
			Improvement float64
		} `json:"fig10"`
		Ablation []struct {
			Variant string
			Prd, Hr float64
			Resp    int64
		} `json:"ablation"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.CacheSweep) == 0 || len(doc.Fig10) == 0 {
		t.Fatalf("golden JSON holds %d cache-sweep and %d Fig. 10 cells", len(doc.CacheSweep), len(doc.Fig10))
	}
	// The sweep lists each workload's cells in ascending fraction order.
	sweep := doc.CacheSweep
	for len(sweep) > 0 {
		n := 1
		for n < len(sweep) && sweep[n].Workload == sweep[0].Workload {
			n++
		}
		w, cells := sweep[0].Workload, sweep[:n]
		sweep = sweep[n:]
		for i := 1; i < len(cells); i++ {
			if cells[i].Fraction <= cells[i-1].Fraction {
				t.Fatalf("%s: cache sweep fractions out of order: %v after %v", w, cells[i].Fraction, cells[i-1].Fraction)
			}
			if cells[i].Hr < cells[i-1].Hr {
				t.Errorf("%s: hit ratio falls from %.4f at %v to %.4f at %v", w, cells[i-1].Hr, cells[i-1].Fraction, cells[i].Hr, cells[i].Fraction)
			}
		}
		first, last := cells[0], cells[len(cells)-1]
		if last.Fraction != 1 || last.Prd != 0 {
			t.Errorf("%s: Prd %.4f at fraction %v, want 0 with the whole table cached", w, last.Prd, last.Fraction)
		}
		if last.Prd > first.Prd {
			t.Errorf("%s: Prd %.4f with the whole table cached, above %.4f at %v", w, last.Prd, first.Prd, first.Fraction)
		}
	}
	for _, c := range doc.Fig10 {
		if c.Improvement < 0 || c.Improvement > 0.33 {
			t.Errorf("%s at %v: Fig. 10 improvement %.4f outside [0, 0.33]", c.Workload, c.Fraction, c.Improvement)
		}
	}

	cell := map[string]int{}
	for i, c := range doc.Ablation {
		cell[c.Variant] = i
	}
	for _, v := range []string{"DFTL", "–", "b", "c", "rsbc"} {
		if _, ok := cell[v]; !ok {
			t.Fatalf("golden JSON has no ablation cell %q", v)
		}
	}
	abl := doc.Ablation
	bare, dftl := abl[cell["–"]], abl[cell["DFTL"]]
	for _, c := range abl {
		if c.Variant == "DFTL" {
			continue
		}
		if strings.Contains(c.Variant, "b") && c.Prd >= bare.Prd/2 {
			t.Errorf("ablation %s: Prd %.4f, want below half of –'s %.4f", c.Variant, c.Prd, bare.Prd)
		}
		if strings.Contains(c.Variant, "r") && c.Hr <= bare.Hr {
			t.Errorf("ablation %s: hit ratio %.4f, want above –'s %.4f", c.Variant, c.Hr, bare.Hr)
		}
		if c.Variant != "rsbc" && c.Resp <= abl[cell["rsbc"]].Resp {
			t.Errorf("ablation %s: response time %d, want above rsbc's %d", c.Variant, c.Resp, abl[cell["rsbc"]].Resp)
		}
	}
	if dc, db := math.Abs(abl[cell["c"]].Prd-bare.Prd), math.Abs(abl[cell["b"]].Prd-bare.Prd); dc >= db {
		t.Errorf("ablation: c moves Prd by %.4f, b by %.4f; want c's move the smaller", dc, db)
	}
	if bare.Hr < dftl.Hr {
		t.Errorf("ablation: –'s hit ratio %.4f below DFTL's %.4f", bare.Hr, dftl.Hr)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	err := run([]string{"-exp", "fig6,fig66"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"fig66"`) || !strings.Contains(err.Error(), "fig10") {
		t.Fatalf("run -exp fig6,fig66: err = %v, want one naming fig66 and listing the valid names", err)
	}
}

func TestUnwritableJSONIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "x.json")
	if err := run([]string{"-exp", "fig2", "-json", path}, io.Discard); err == nil {
		t.Fatalf("run -json %s: err = nil, want the write error", path)
	}
}
