package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"ok", Request{Arrival: 0, Offset: 0, Length: 512, Op: OpWrite}, true},
		{"negative offset", Request{Offset: -1, Length: 512}, false},
		{"zero length", Request{Offset: 0, Length: 0}, false},
		{"negative arrival", Request{Arrival: -5, Offset: 0, Length: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.req.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestPagesSplitting(t *testing.T) {
	cases := []struct {
		name        string
		off, length int64
		first, last int64
		count       int
	}{
		{"one page aligned", 0, 4096, 0, 0, 1},
		{"one byte", 0, 1, 0, 0, 1},
		{"straddles boundary", 4000, 200, 0, 1, 2},
		{"aligned two pages", 4096, 8192, 1, 2, 2},
		{"ends at boundary", 0, 8192, 0, 1, 2},
		{"starts at last byte", 4095, 2, 0, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Request{Offset: tc.off, Length: tc.length}
			first, last := r.Pages(4096)
			if first != tc.first || last != tc.last {
				t.Fatalf("Pages = [%d,%d], want [%d,%d]", first, last, tc.first, tc.last)
			}
			if got := r.PageCount(4096); got != tc.count {
				t.Fatalf("PageCount = %d, want %d", got, tc.count)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	reqs := []Request{
		{Arrival: 0, Offset: 0, Length: 4096, Op: OpWrite},
		{Arrival: 1, Offset: 4096, Length: 4096, Op: OpWrite}, // sequential write
		{Arrival: 2, Offset: 8192, Length: 4096, Op: OpRead},  // sequential read
		{Arrival: 3, Offset: 100000, Length: 2048, Op: OpRead},
	}
	s := Summarize(reqs)
	if s.Requests != 4 || s.Writes != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SeqWrites != 1 || s.SeqReads != 1 {
		t.Fatalf("seq counts = %d/%d, want 1/1", s.SeqReads, s.SeqWrites)
	}
	if got := s.WriteRatio(); got != 0.5 {
		t.Fatalf("WriteRatio = %v", got)
	}
	if got := s.AvgRequestSize(); got != (4096*3+2048)/4.0 {
		t.Fatalf("AvgRequestSize = %v", got)
	}
	if got := s.SeqWriteRatio(); got != 0.5 {
		t.Fatalf("SeqWriteRatio = %v", got)
	}
	if got := s.SeqReadRatio(); got != 0.5 {
		t.Fatalf("SeqReadRatio = %v", got)
	}
	if s.MaxEnd != 102048 {
		t.Fatalf("MaxEnd = %d", s.MaxEnd)
	}
	if s.PageAccesses != 1+1+1+1 {
		t.Fatalf("PageAccesses = %d", s.PageAccesses)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.WriteRatio() != 0 || s.AvgRequestSize() != 0 || s.SeqReadRatio() != 0 || s.SeqWriteRatio() != 0 {
		t.Fatal("empty stats must be all zero")
	}
}

func TestParseSPC(t *testing.T) {
	in := `0,20941264,8192,W,0.551706
0,20939840,8192,W,0.554041
# comment
1,3208848,512,r,1.25
`
	reqs, err := ParseSPC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if reqs[0].Offset != 20941264*512 || reqs[0].Length != 8192 || !reqs[0].IsWrite() {
		t.Fatalf("req0 = %+v", reqs[0])
	}
	if reqs[0].Arrival != 0 {
		t.Fatalf("first arrival = %d, want rebased 0", reqs[0].Arrival)
	}
	if want := int64(0.554041*1e9) - int64(0.551706*1e9); reqs[1].Arrival != want {
		t.Fatalf("second arrival = %d, want %d", reqs[1].Arrival, want)
	}
	if reqs[2].IsWrite() {
		t.Fatal("req2 should be a read")
	}
}

func TestParseSPCErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"short line", "0,1,2\n"},
		{"bad lba", "0,xx,8192,W,0.5\n"},
		{"bad size", "0,1,xx,W,0.5\n"},
		{"bad op", "0,1,8192,q,0.5\n"},
		{"bad timestamp", "0,1,8192,W,zz\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSPC(strings.NewReader(tc.in)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestParseMSR(t *testing.T) {
	in := `128166372003061629,ts,0,Read,665600,8192,1331
128166372016382155,ts,0,Write,1863680,4096,4768
`
	reqs, err := ParseMSR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if reqs[0].Arrival != 0 {
		t.Fatalf("first arrival = %d, want rebased 0", reqs[0].Arrival)
	}
	// Tick delta 13320526 * 100ns = 1332052600 ns.
	if reqs[1].Arrival != 13320526*100 {
		t.Fatalf("second arrival = %d", reqs[1].Arrival)
	}
	if reqs[0].IsWrite() || !reqs[1].IsWrite() {
		t.Fatal("op direction wrong")
	}
	if reqs[1].Offset != 1863680 || reqs[1].Length != 4096 {
		t.Fatalf("req1 = %+v", reqs[1])
	}
}

func TestParseMSRErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"short", "1,h,0,Read,5\n"},
		{"bad ts", "x,h,0,Read,0,4096\n"},
		{"bad type", "1,h,0,Zap,0,4096\n"},
		{"bad offset", "1,h,0,Read,x,4096\n"},
		{"bad size", "1,h,0,Read,0,x\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseMSR(strings.NewReader(tc.in)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNativeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 200)
	var arrival int64
	for i := range reqs {
		arrival += int64(rng.Intn(1e6))
		reqs[i] = Request{
			Arrival: arrival,
			Offset:  int64(rng.Intn(1 << 28)),
			Length:  int64(1 + rng.Intn(1<<16)),
			Op:      opOf(rng.Intn(2) == 0),
		}
	}
	// ParseNative rebases arrivals to start at 0, so round-tripping shifts
	// every timestamp by the first request's arrival. Compare against the
	// rebased originals.
	base := reqs[0].Arrival
	for i := range reqs {
		reqs[i].Arrival -= base
	}
	var buf bytes.Buffer
	if err := WriteNative(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseNative(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip %d → %d requests", len(reqs), len(got))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("req %d: %+v != %+v", i, got[i], reqs[i])
		}
	}
}

func TestParseNativeErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"field count", "1,2,3\n"},
		{"bad arrival", "x,0,1,r\n"},
		{"bad offset", "1,x,1,r\n"},
		{"bad length", "1,0,x,r\n"},
		{"bad op", "1,0,1,z\n"},
		{"invalid request", "1,0,-5,r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseNative(strings.NewReader(tc.in)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestFormatByName(t *testing.T) {
	for name, want := range map[string]Format{
		"native": FormatNative, "csv": FormatNative,
		"spc": FormatSPC, "umass": FormatSPC, "financial": FormatSPC,
		"msr": FormatMSR, "MSR": FormatMSR,
	} {
		got, err := FormatByName(name)
		if err != nil || got != want {
			t.Fatalf("FormatByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := FormatByName("nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestParseDispatch(t *testing.T) {
	if _, err := Parse(strings.NewReader(""), Format(99)); err == nil {
		t.Fatal("unknown format accepted")
	}
	reqs, err := Parse(strings.NewReader("0,0,4096,w\n"), FormatNative)
	if err != nil || len(reqs) != 1 {
		t.Fatalf("native dispatch: %v %d", err, len(reqs))
	}
}

func TestClamp(t *testing.T) {
	reqs := []Request{
		{Offset: 100, Length: 50},
		{Offset: 990, Length: 50},  // truncated to 10
		{Offset: 2000, Length: 10}, // wraps to 1000... 2000 % 1000 = 0
	}
	out := Clamp(reqs, 1000)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[1].Length != 10 {
		t.Fatalf("truncated length = %d", out[1].Length)
	}
	if out[2].Offset != 0 {
		t.Fatalf("wrapped offset = %d", out[2].Offset)
	}
	for _, r := range out {
		if r.End() > 1000 {
			t.Fatalf("request escapes address space: %+v", r)
		}
	}
}

// Property: page splitting always covers the byte range exactly.
func TestQuickPageCoverage(t *testing.T) {
	f := func(off uint32, length uint16) bool {
		r := Request{Offset: int64(off), Length: int64(length) + 1}
		first, last := r.Pages(4096)
		if first*4096 > r.Offset || (last+1)*4096 < r.End() {
			return false // pages don't cover the request
		}
		if first > 0 && first*4096+4096 <= r.Offset {
			return false // first page too low
		}
		return last*4096 < r.End() // last page must intersect
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSPCRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: 0, Offset: 512 * 100, Length: 4096, Op: OpWrite},
		{Arrival: 1_500_000_000, Offset: 512 * 999, Length: 8192, Op: OpRead},
	}
	var buf bytes.Buffer
	if err := WriteSPC(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSPC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip %d → %d", len(reqs), len(got))
	}
	for i := range got {
		// SPC timestamps are seconds at µs precision; compare accordingly.
		if got[i].Offset != reqs[i].Offset || got[i].Length != reqs[i].Length ||
			got[i].Op != reqs[i].Op {
			t.Fatalf("req %d: %+v != %+v", i, got[i], reqs[i])
		}
		if d := got[i].Arrival - reqs[i].Arrival; d < -1000 || d > 1000 {
			t.Fatalf("req %d arrival off by %d ns", i, d)
		}
	}
}

func TestMSRRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: 0, Offset: 4096, Length: 4096, Op: OpRead},
		{Arrival: 2_000_000_000, Offset: 81920, Length: 512, Op: OpWrite},
	}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip %d → %d", len(reqs), len(got))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("req %d: %+v != %+v", i, got[i], reqs[i])
		}
	}
}

func TestWriteDispatch(t *testing.T) {
	reqs := []Request{{Arrival: 0, Offset: 0, Length: 512, Op: OpWrite}}
	for _, f := range []Format{FormatNative, FormatSPC, FormatMSR} {
		var buf bytes.Buffer
		if err := Write(&buf, reqs, f); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		got, err := Parse(&buf, f)
		if err != nil || len(got) != 1 {
			t.Fatalf("format %d: %v %d", f, err, len(got))
		}
	}
	if err := Write(nil, reqs, Format(99)); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func opOf(write bool) Op {
	if write {
		return OpWrite
	}
	return OpRead
}

// TestRebaseLateStartingTrace is the regression for the unified
// arrival-rebasing contract: traces captured at an arbitrary wall-clock
// epoch — including MSR's Windows FILETIME ticks, whose nanosecond
// conversion overflows int64 unless the parser rebases in the tick domain —
// must come back with the first request at time 0 and every inter-arrival
// gap preserved, identically across all three formats.
func TestRebaseLateStartingTrace(t *testing.T) {
	cases := []struct {
		name string
		in   string
		f    Format
	}{
		// Native trace starting 5000 s in.
		{"native", "5000000000000,0,4096,r\n5000000100000,4096,4096,w\n", FormatNative},
		// SPC trace starting at t=86400 s (a day of captured epoch).
		{"spc", "0,8,4096,r,86400.000000\n0,16,4096,w,86400.000100\n", FormatSPC},
		// MSR trace with a realistic 2007 FILETIME epoch (~1.28e17 ticks):
		// 1.28e17 ticks × 100 ns/tick = 1.28e19 ns, past int64's 9.2e18.
		{"msr", "128166372003061629,ts,0,Read,0,4096,0\n128166372003062629,ts,0,Write,4096,4096,0\n", FormatMSR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs, err := Parse(strings.NewReader(tc.in), tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if len(reqs) != 2 {
				t.Fatalf("got %d requests", len(reqs))
			}
			if reqs[0].Arrival != 0 {
				t.Fatalf("first arrival = %d, want rebased 0", reqs[0].Arrival)
			}
			if reqs[1].Arrival != 100_000 {
				t.Fatalf("gap = %d ns, want 100000", reqs[1].Arrival)
			}
		})
	}
}

// TestZeroLengthSkip checks the unified zero-length rule: zero-length
// read/write/trim marker records are silently dropped by every parser,
// while a flush — which legitimately has no payload — is kept.
func TestZeroLengthSkip(t *testing.T) {
	cases := []struct {
		name string
		in   string
		f    Format
	}{
		{"native", "100,0,0,r\n200,0,0,w\n300,0,0,t\n400,0,0,f\n500,4096,4096,w\n", FormatNative},
		{"spc", "0,0,0,r,0.1\n0,0,0,w,0.2\n0,0,0,t,0.3\n0,0,0,f,0.4\n0,8,4096,w,0.5\n", FormatSPC},
		{"msr", "1000,h,0,Read,0,0,0\n2000,h,0,Write,0,0,0\n3000,h,0,Trim,0,0,0\n4000,h,0,Flush,0,0,0\n5000,h,0,Write,4096,4096,0\n", FormatMSR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs, err := Parse(strings.NewReader(tc.in), tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if len(reqs) != 2 {
				t.Fatalf("got %d requests, want 2 (flush + real write)", len(reqs))
			}
			if reqs[0].Op != OpFlush {
				t.Fatalf("first kept request is %v, want flush", reqs[0].Op)
			}
			if reqs[1].Op != OpWrite || reqs[1].Length != 4096 {
				t.Fatalf("second kept request = %+v", reqs[1])
			}
		})
	}
}

// TestOpRoundTripAllFormats round-trips one request of every op kind
// through each format's writer and parser: the op must survive, and a
// flush must come back with no payload.
func TestOpRoundTripAllFormats(t *testing.T) {
	reqs := []Request{
		{Arrival: 0, Offset: 0, Length: 4096, Op: OpRead},
		{Arrival: 1_000_000, Offset: 4096, Length: 4096, Op: OpWrite},
		{Arrival: 2_000_000, Offset: 8192, Length: 4096, Op: OpWriteFUA},
		{Arrival: 3_000_000, Offset: 12288, Length: 8192, Op: OpTrim},
		{Arrival: 4_000_000, Offset: 0, Length: 0, Op: OpFlush},
	}
	for _, f := range []Format{FormatNative, FormatSPC, FormatMSR} {
		var buf bytes.Buffer
		if err := Write(&buf, reqs, f); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		got, err := Parse(&buf, f)
		if err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("format %d: %d requests round-tripped, want %d", f, len(got), len(reqs))
		}
		for i := range got {
			if got[i].Op != reqs[i].Op {
				t.Errorf("format %d req %d: op %v, want %v", f, i, got[i].Op, reqs[i].Op)
			}
		}
		if got[4].Offset != 0 || got[4].Length != 0 {
			t.Errorf("format %d: flush came back with payload %+v", f, got[4])
		}
	}
}

// TestOpTokenParsing checks the shared token table: canonical single-letter
// tokens, long aliases, and case-insensitivity.
func TestOpTokenParsing(t *testing.T) {
	in := "100,0,4096,READ\n200,0,4096,Write\n300,0,4096,fua\n400,0,4096,discard\n500,0,0,FLUSH\n"
	reqs, err := ParseNative(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{OpRead, OpWrite, OpWriteFUA, OpTrim, OpFlush}
	if len(reqs) != len(want) {
		t.Fatalf("got %d requests", len(reqs))
	}
	for i := range want {
		if reqs[i].Op != want[i] {
			t.Errorf("req %d: op %v, want %v", i, reqs[i].Op, want[i])
		}
	}
}
