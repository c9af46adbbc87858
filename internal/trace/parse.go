package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Format identifies an on-disk trace format.
type Format int

const (
	// FormatNative is this repository's CSV: arrival_ns,offset,length,op.
	FormatNative Format = iota
	// FormatSPC is the UMass trace repository SPC format used by the
	// Financial1/Financial2 traces: ASU,LBA,Size,Opcode,Timestamp[,...].
	// LBA is in 512-byte sectors; Size is in bytes.
	FormatSPC
	// FormatMSR is the MSR Cambridge CSV:
	// Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime.
	FormatMSR
	// FormatBinary is this repository's fixed-record binary format (see
	// binary.go): streamable in bounded memory, the target of
	// `tracegen convert`.
	FormatBinary
)

// spcSectorSize is the unit of the LBA column in UMass SPC traces.
const spcSectorSize = 512

// maxLineBytes bounds a single trace line. Captured traces occasionally
// carry pathological lines (concatenated records, huge vendor comment
// blobs); bufio.Scanner's default 64 KB cap — and the 1 MB cap the parsers
// used before this was centralized — abort the whole parse on them with an
// unhelpful "token too long". 16 MB is far beyond any legitimate record yet
// still bounds memory on a malformed input.
const maxLineBytes = 16 << 20

// newLineScanner builds the line scanner all CSV parsers share, with the
// explicit buffer sizing in one place.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLineBytes)
	return sc
}

// ParseError reports a malformed trace line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s", e.Line, e.Msg)
}

// parseOpToken maps an opcode token shared across the trace formats to an
// Op. Accepted tokens (case-insensitive): r/read, w/write, wf/fua/writefua,
// t/trim/discard, f/flush.
func parseOpToken(tok string) (Op, bool) {
	switch strings.ToLower(tok) {
	case "r", "read":
		return OpRead, true
	case "w", "write":
		return OpWrite, true
	case "wf", "fua", "writefua":
		return OpWriteFUA, true
	case "t", "trim", "discard":
		return OpTrim, true
	case "f", "flush":
		return OpFlush, true
	}
	return 0, false
}

// opToken returns the canonical single-token spelling of an op for the
// native and SPC writers.
func opToken(o Op) string {
	switch o {
	case OpRead:
		return "r"
	case OpWrite:
		return "w"
	case OpWriteFUA:
		return "wf"
	case OpTrim:
		return "t"
	case OpFlush:
		return "f"
	}
	return "?"
}

// rebaser shifts arrival timestamps so the first request arrives at time 0,
// preserving all inter-arrival gaps. Captured traces start at an arbitrary
// wall-clock epoch; without rebasing, a replay would idle for the whole epoch
// of simulated time before the first request. Every text parser rebases each
// request before validating it, so an out-of-order line is rejected as a
// negative arrival in every format.
type rebaser struct {
	base int64
	set  bool
}

// rebase returns t relative to the first timestamp it was given.
func (b *rebaser) rebase(t int64) int64 {
	if !b.set {
		b.base, b.set = t, true
	}
	return t - b.base
}

// skippableZeroLength reports whether a parsed line with size 0 should be
// silently dropped. Captured traces contain zero-length marker records for
// reads, writes and trims; every parser skips them identically. A flush
// legitimately has no payload and is never skipped.
func skippableZeroLength(op Op, size int64) bool {
	return size == 0 && op != OpFlush
}

// ParseSPC reads an SPC-format trace (UMass Financial1/2):
//
//	ASU,LBA,Size,Opcode,Timestamp
//
// where LBA is the address in 512-byte sectors, Size is in bytes, Opcode is
// r/R, w/W, wf (FUA write), t/T (trim) or f/F (flush), and Timestamp is in
// seconds (float). Extra trailing fields are ignored. Arrival times are
// rebased so the first request arrives at 0. The paper's Financial traces
// use this format.
func ParseSPC(r io.Reader) ([]Request, error) {
	var out []Request
	var arrivals rebaser
	sc := newLineScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 5 {
			return nil, &ParseError{lineNo, fmt.Sprintf("want ≥5 fields, got %d", len(f))}
		}
		lba, err := strconv.ParseInt(strings.TrimSpace(f[1]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad LBA: " + err.Error()}
		}
		if lba < 0 || lba > math.MaxInt64/spcSectorSize {
			return nil, &ParseError{lineNo, fmt.Sprintf("LBA %d out of range", lba)}
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[2]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad size: " + err.Error()}
		}
		op, ok := parseOpToken(strings.TrimSpace(f[3]))
		if !ok {
			return nil, &ParseError{lineNo, "bad opcode " + strings.TrimSpace(f[3])}
		}
		ts, err := strconv.ParseFloat(strings.TrimSpace(f[4]), 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad timestamp: " + err.Error()}
		}
		if !(math.Abs(ts) < 9e9) { // 285 years; NaN fails too
			return nil, &ParseError{lineNo, fmt.Sprintf("timestamp %v out of range", ts)}
		}
		if skippableZeroLength(op, size) {
			continue // some traces contain zero-length markers
		}
		req := Request{
			Arrival: arrivals.rebase(int64(ts * 1e9)),
			Offset:  lba * spcSectorSize,
			Length:  size,
			Op:      op,
		}
		if op == OpFlush {
			req.Offset, req.Length = 0, 0
		}
		if err := req.Validate(); err != nil {
			return nil, &ParseError{lineNo, err.Error()}
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading SPC trace: %w", err)
	}
	return out, nil
}

// msrTicksPerSecond is the unit of the MSR Timestamp column (Windows
// filetime: 100 ns ticks).
const msrTicksPerSecond = 10_000_000

// ParseMSR reads an MSR Cambridge CSV trace:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is a Windows filetime (100 ns ticks), Offset and Size are in
// bytes, Type is Read/Write/Trim/Flush/WriteFUA. Arrival times are rebased
// so the first request arrives at 0.
func ParseMSR(r io.Reader) ([]Request, error) {
	var out []Request
	var ticks rebaser
	sc := newLineScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 6 {
			return nil, &ParseError{lineNo, fmt.Sprintf("want ≥6 fields, got %d", len(f))}
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad timestamp: " + err.Error()}
		}
		op, ok := parseOpToken(strings.TrimSpace(f[3]))
		if !ok {
			return nil, &ParseError{lineNo, "bad type " + strings.TrimSpace(f[3])}
		}
		off, err := strconv.ParseInt(strings.TrimSpace(f[4]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad offset: " + err.Error()}
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[5]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad size: " + err.Error()}
		}
		if skippableZeroLength(op, size) {
			continue
		}
		// Rebase in the tick domain: MSR timestamps are Windows FILETIME
		// ticks (~1.3e17 for 2007-era captures), and converting an absolute
		// tick count to nanoseconds overflows int64. Subtracting the first
		// request's ticks before scaling keeps the arithmetic in range.
		req := Request{
			Arrival: ticks.rebase(ts) * (1e9 / msrTicksPerSecond),
			Offset:  off,
			Length:  size,
			Op:      op,
		}
		if op == OpFlush {
			req.Offset, req.Length = 0, 0
		}
		if err := req.Validate(); err != nil {
			return nil, &ParseError{lineNo, err.Error()}
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading MSR trace: %w", err)
	}
	return out, nil
}

// ParseNative reads the native CSV format: arrival_ns,offset,length,op with
// op ∈ {r, w, wf, t, f}. Lines starting with '#' are comments. Arrival
// times are rebased so the first request arrives at 0, matching the SPC and
// MSR parsers.
func ParseNative(r io.Reader) ([]Request, error) {
	var out []Request
	var arrivals rebaser
	sc := newLineScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 4 {
			return nil, &ParseError{lineNo, fmt.Sprintf("want 4 fields, got %d", len(f))}
		}
		arrival, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad arrival: " + err.Error()}
		}
		off, err := strconv.ParseInt(strings.TrimSpace(f[1]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad offset: " + err.Error()}
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[2]), 10, 64)
		if err != nil {
			return nil, &ParseError{lineNo, "bad length: " + err.Error()}
		}
		op, ok := parseOpToken(strings.TrimSpace(f[3]))
		if !ok {
			return nil, &ParseError{lineNo, "bad op " + strings.TrimSpace(f[3])}
		}
		if skippableZeroLength(op, size) {
			continue
		}
		req := Request{Arrival: arrivals.rebase(arrival), Offset: off, Length: size, Op: op}
		if err := req.Validate(); err != nil {
			return nil, &ParseError{lineNo, err.Error()}
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading native trace: %w", err)
	}
	return out, nil
}

// Parse reads a trace in the given format.
func Parse(r io.Reader, f Format) ([]Request, error) {
	switch f {
	case FormatNative:
		return ParseNative(r)
	case FormatSPC:
		return ParseSPC(r)
	case FormatMSR:
		return ParseMSR(r)
	case FormatBinary:
		return parseBinary(r)
	default:
		return nil, fmt.Errorf("trace: unknown format %d", f)
	}
}

// FormatByName maps user-facing names to Format values.
func FormatByName(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "native", "csv":
		return FormatNative, nil
	case "spc", "umass", "financial":
		return FormatSPC, nil
	case "msr", "cambridge":
		return FormatMSR, nil
	case "binary", "bin", "ftr":
		return FormatBinary, nil
	default:
		return 0, fmt.Errorf("trace: unknown format %q (want native, spc, msr or binary)", name)
	}
}

// WriteNative writes reqs in the native CSV format.
func WriteNative(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# arrival_ns,offset,length,op"); err != nil {
		return err
	}
	for _, r := range reqs {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%s\n", r.Arrival, r.Offset, r.Length, opToken(r.Op)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSPC writes reqs in the UMass SPC format (ASU,LBA,Size,Opcode,
// Timestamp), the format of the paper's Financial traces. Offsets are
// rounded down to 512-byte sector boundaries.
func WriteSPC(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range reqs {
		if _, err := fmt.Fprintf(bw, "0,%d,%d,%s,%.6f\n",
			r.Offset/spcSectorSize, r.Length, opToken(r.Op), float64(r.Arrival)/1e9); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// msrTypeName spells an op in the Type column style of MSR Cambridge CSVs.
func msrTypeName(o Op) string {
	switch o {
	case OpRead:
		return "Read"
	case OpWrite:
		return "Write"
	case OpWriteFUA:
		return "WriteFUA"
	case OpTrim:
		return "Trim"
	case OpFlush:
		return "Flush"
	}
	return "?"
}

// WriteMSR writes reqs in the MSR Cambridge CSV format (Timestamp,Hostname,
// DiskNumber,Type,Offset,Size,ResponseTime), the format of the paper's
// MSR-ts/MSR-src traces.
func WriteMSR(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range reqs {
		ticks := r.Arrival / (1e9 / msrTicksPerSecond)
		if _, err := fmt.Fprintf(bw, "%d,host,0,%s,%d,%d,0\n",
			ticks, msrTypeName(r.Op), r.Offset, r.Length); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Write serializes reqs in the given format.
func Write(w io.Writer, reqs []Request, f Format) error {
	switch f {
	case FormatNative:
		return WriteNative(w, reqs)
	case FormatSPC:
		return WriteSPC(w, reqs)
	case FormatMSR:
		return WriteMSR(w, reqs)
	case FormatBinary:
		return WriteBinary(w, reqs)
	default:
		return fmt.Errorf("trace: unknown format %d", f)
	}
}
