package obstest

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs/live"
)

// Scanner sizing for the line-oriented validators: initial buffer and the
// hard cap on a single exposition or dump line. I/O sizes, not flash
// geometry.
const (
	scanBufInit = 64 << 10
	scanBufMax  = 1 << 20
)

// Exposition is a parsed Prometheus text scrape: every sample keyed by its
// full series identity (name plus sorted label set) and the declared TYPE of
// each metric family.
type Exposition struct {
	Samples map[string]float64
	Types   map[string]string
}

// ValidatePrometheus parses r as Prometheus text exposition format (0.0.4)
// and checks the syntax rules the smoke pins: metric-name and label-name
// grammar, quoted/escaped label values, parseable sample values, HELP/TYPE
// declared at most once per family and TYPE before the family's first
// sample. Returns the parsed samples for monotonicity comparison.
func ValidatePrometheus(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Samples: map[string]float64{}, Types: map[string]string{}}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, scanBufInit), scanBufMax)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := parseComment(text, exp, helped, sampled); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		key, val, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		sampled[name] = true
		if _, dup := exp.Samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", line, key)
		}
		exp.Samples[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(exp.Samples) == 0 && len(exp.Types) == 0 {
		return nil, fmt.Errorf("empty exposition")
	}
	return exp, nil
}

func parseComment(text string, exp *Exposition, helped, sampled map[string]bool) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", text)
		}
		if helped[fields[2]] {
			return fmt.Errorf("duplicate HELP for %s", fields[2])
		}
		helped[fields[2]] = true
	case "TYPE":
		if len(fields) < 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", text)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("invalid TYPE %q for %s", typ, name)
		}
		if _, dup := exp.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE for %s after its first sample", name)
		}
		exp.Types[name] = typ
	}
	return nil
}

// parseSample parses `name{label="v",...} value [timestamp]` and returns a
// canonical series key (labels sorted) plus the value.
func parseSample(text string) (string, float64, error) {
	rest := text
	i := 0
	for i < len(rest) && rest[i] != '{' && rest[i] != ' ' {
		i++
	}
	name := rest[:i]
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	var labels []string
	if strings.HasPrefix(rest, "{") {
		var err error
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return "", 0, fmt.Errorf("metric %s: %w", name, err)
		}
	}
	rest = strings.TrimSpace(rest)
	valueField := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		valueField = rest[:i]
		ts := strings.TrimSpace(rest[i+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return "", 0, fmt.Errorf("metric %s: invalid timestamp %q", name, ts)
		}
	}
	v, err := parseValue(valueField)
	if err != nil {
		return "", 0, fmt.Errorf("metric %s: %w", name, err)
	}
	sort.Strings(labels)
	key := name
	if len(labels) > 0 {
		key += "{" + strings.Join(labels, ",") + "}"
	}
	return key, v, nil
}

// parseLabels consumes a {label="value",...} block and returns the
// label="value" pairs plus the remainder of the line.
func parseLabels(s string) ([]string, string, error) {
	var labels []string
	s = s[1:] // consume '{'
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		i := 0
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		lname := strings.TrimSpace(s[:i])
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		s = s[i+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", lname)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i = 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", lname)
				}
				i++
				switch s[i] {
				case '\\', '"':
					val.WriteByte(s[i])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", lname, s[i])
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, "", fmt.Errorf("label %s: unterminated value", lname)
		}
		labels = append(labels, lname+`="`+val.String()+`"`)
		s = s[i+1:]
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "":
		return 0, fmt.Errorf("missing value")
	case "+Inf", "-Inf", "Nan", "NaN":
		// Accepted exposition spellings; exact value is irrelevant here.
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value %q", s)
	}
	return v, nil
}

// The exposition format's name grammars; a label name may not start "__".
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func validMetricName(s string) bool { return metricName.MatchString(s) }

func validLabelName(s string) bool { return labelName.MatchString(s) && !strings.HasPrefix(s, "__") }

// CheckCounterMonotonic verifies that every counter series present in prev
// did not decrease in cur. A series is a counter when cur declares its
// family TYPE counter, or (untyped) when its name ends in _total. Series may
// appear in cur that prev lacked (new shards publishing); a counter series
// vanishing from cur is an error — within one run the cell set only grows.
func CheckCounterMonotonic(prev, cur *Exposition) error {
	keys := make([]string, 0, len(prev.Samples))
	for k := range prev.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		typ := cur.Types[name]
		if typ != "counter" && !(typ == "" && strings.HasSuffix(name, "_total")) {
			continue
		}
		curV, ok := cur.Samples[key]
		if !ok {
			return fmt.Errorf("counter series %s disappeared between scrapes", key)
		}
		if curV < prev.Samples[key] {
			return fmt.Errorf("counter series %s decreased: %v -> %v", key, prev.Samples[key], curV)
		}
	}
	return nil
}

// ValidateRecorderDump checks a flight-recorder dump (Plane.DumpRecorders
// output): header and trailer present, shard sections with consistent
// retained counts, records carrying the full field set with known kinds and
// strictly increasing per-shard sequence numbers. Returns the record count.
func ValidateRecorderDump(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, scanBufInit), scanBufMax)
	if !sc.Scan() {
		return 0, fmt.Errorf("empty dump")
	}
	if !strings.HasPrefix(sc.Text(), "flight recorder: shards=") {
		return 0, fmt.Errorf("missing header, got %q", sc.Text())
	}
	records, line := 0, 1
	inShard := false
	sectionRetained, sectionSeen := 0, 0
	var lastSeq int64
	closeSection := func() error {
		if inShard && sectionSeen != sectionRetained {
			return fmt.Errorf("shard section: retained=%d but %d records", sectionRetained, sectionSeen)
		}
		return nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "-- shard "):
			if err := closeSection(); err != nil {
				return 0, fmt.Errorf("line %d: %w", line, err)
			}
			inShard = true
			sectionSeen, lastSeq = 0, 0
			var shard int
			var total int64
			if _, err := fmt.Sscanf(text, "-- shard %d: total=%d retained=%d --", &shard, &total, &sectionRetained); err != nil {
				return 0, fmt.Errorf("line %d: malformed shard header %q", line, text)
			}
		case text == "end flight recorder":
			if err := closeSection(); err != nil {
				return 0, fmt.Errorf("line %d: %w", line, err)
			}
			return records, nil
		case strings.HasPrefix(text, "seq="):
			if !inShard {
				return 0, fmt.Errorf("line %d: record outside a shard section", line)
			}
			var seq, simNS, off, n, arrival, admit, complete int64
			var kind string
			if _, err := fmt.Sscanf(text,
				"seq=%d sim_ns=%d kind=%s off=%d n=%d arrival_ns=%d admit_ns=%d complete_ns=%d",
				&seq, &simNS, &kind, &off, &n, &arrival, &admit, &complete); err != nil {
				return 0, fmt.Errorf("line %d: malformed record %q: %v", line, text, err)
			}
			if !knownKind(kind) {
				return 0, fmt.Errorf("line %d: unknown kind %q", line, kind)
			}
			if seq <= lastSeq {
				return 0, fmt.Errorf("line %d: sequence not increasing (%d after %d)", line, seq, lastSeq)
			}
			lastSeq = seq
			sectionSeen++
			records++
		default:
			return 0, fmt.Errorf("line %d: unexpected line %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("missing trailer")
}

// knownKind reports whether name is the dump token of a recorder kind.
func knownKind(name string) bool {
	for k := live.Kind(0); k.String() != "unknown"; k++ {
		if k.String() == name {
			return true
		}
	}
	return false
}
