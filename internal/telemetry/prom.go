package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"helios/internal/stats"
)

// Family is one metric family, declared once: WriteOpenMetrics renders a
// table of families as the OpenMetrics exposition and MetricsJSON as the
// JSON document, so the two /metricz forms cannot drift apart.
type Family struct {
	// Name is the family name: heliosd_ prefix, snake_case, base unit
	// spelled out. A counter's samples carry it with the _total suffix.
	Name string
	Type string // "counter", "gauge" or "histogram"
	Help string
	// Label names the one label that splits a labelled family into
	// series. An unlabelled family (Label "") carries exactly one series.
	Label  string
	Series []Series
}

// Series is one value of a family: Value for a counter or gauge, Hist
// for a histogram. LabelValue is the value of the family's Label.
type Series struct {
	LabelValue string
	Value      uint64
	Hist       *Histogram
}

// Counter declares an unlabelled counter family.
func Counter(name, help string, v uint64) Family {
	return Family{Name: name, Type: "counter", Help: help, Series: []Series{{Value: v}}}
}

// Gauge declares an unlabelled gauge family.
func Gauge(name, help string, v uint64) Family {
	return Family{Name: name, Type: "gauge", Help: help, Series: []Series{{Value: v}}}
}

// OpenMetricsContentType is the Content-Type of the OpenMetrics
// exposition.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// histBucketStride picks which stats.Histogram bucket boundaries become
// `le` bounds: every 4th boundary from 15 up (one per octave), which
// are exact cumulative cut points of the underlying geometry — the
// exposition never interpolates.
const histBucketStride = 4

// WriteOpenMetrics renders fams as one OpenMetrics 1.0.0 exposition: a
// HELP and TYPE header per family, then its samples, then `# EOF`.
// Histogram samples clamped into the last bucket by the 2^24 geometry
// cap surface in the final finite bucket, so the +Inf bucket always
// equals _count; each exposed bucket carries the newest exemplar among
// the fine buckets it covers as `# {trace_id="…"} value timestamp`. A
// table with an invalid or repeated name or an unknown type is an
// error, and nothing is written.
func WriteOpenMetrics(w io.Writer, fams []Family) error {
	var b strings.Builder
	seen := make(map[string]bool, len(fams))
	for _, f := range fams {
		if !promNameRe.MatchString(f.Name) {
			return fmt.Errorf("telemetry: invalid metric name %q", f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("telemetry: metric family %q declared twice", f.Name)
		}
		seen[f.Name] = true
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, escapeHelp(f.Help), f.Name, f.Type)
		for _, s := range f.Series {
			var labels string
			if f.Label != "" {
				labels = fmt.Sprintf("%s=%q", f.Label, s.LabelValue)
			}
			switch f.Type {
			case "counter":
				writeSample(&b, f.Name+"_total", labels, strconv.FormatUint(s.Value, 10))
			case "gauge":
				writeSample(&b, f.Name, labels, strconv.FormatUint(s.Value, 10))
			case "histogram":
				writeHistogram(&b, f.Name, labels, s.Hist)
			default:
				return fmt.Errorf("telemetry: metric family %q has unknown type %q", f.Name, f.Type)
			}
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	var cum uint64
	lo := 0 // first exposed bucket covers fine buckets [0, 15]
	for i := 0; i < stats.NumHistBuckets; i++ {
		cum += h.Buckets[i]
		if i < 15 || (i-15)%histBucketStride != 0 {
			continue
		}
		value := strconv.FormatUint(cum, 10)
		if ex, ok := h.newestExemplar(lo, i); ok {
			value += fmt.Sprintf(` # {trace_id="%d"} %d %s`, ex.TraceID, ex.Value,
				strconv.FormatFloat(float64(ex.TSUnixUS)/1e6, 'f', 6, 64))
		}
		writeSample(b, name+"_bucket", withLE(labels, strconv.FormatUint(stats.HistBucketBound(i), 10)), value)
		lo = i + 1
	}
	writeSample(b, name+"_bucket", withLE(labels, "+Inf"), strconv.FormatUint(h.Count, 10))
	writeSample(b, name+"_sum", labels, strconv.FormatUint(h.Sum, 10))
	writeSample(b, name+"_count", labels, strconv.FormatUint(h.Count, 10))
}

func withLE(labels, le string) string {
	if labels != "" {
		labels += ","
	}
	return labels + `le="` + le + `"`
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" " + value + "\n")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// HistSummary is the JSON rendering of a histogram: count, mean and the
// P50/P95/P99 percentiles, all in the histogram's base unit
// (microseconds for heliosd). The OpenMetrics buckets of the same
// family are a lossless projection of the same stats.Histogram, so the
// two forms never disagree about the distribution.
type HistSummary struct {
	Count uint64 `json:"count"`
	Mean  uint64 `json:"mean"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
}

// MetricsJSON renders fams as the /metricz JSON document, one key per
// family name: an unlabelled counter or gauge is a number, an unlabelled
// histogram a HistSummary, and a labelled family an object keyed by
// label value.
func MetricsJSON(fams []Family) map[string]any {
	doc := make(map[string]any, len(fams))
	for _, f := range fams {
		if f.Label == "" {
			doc[f.Name] = f.Series[0].jsonValue()
			continue
		}
		byLabel := make(map[string]any, len(f.Series))
		for _, s := range f.Series {
			byLabel[s.LabelValue] = s.jsonValue()
		}
		doc[f.Name] = byLabel
	}
	return doc
}

func (s Series) jsonValue() any {
	if s.Hist == nil {
		return s.Value
	}
	h := &s.Hist.Histogram
	return HistSummary{Count: h.Count, Mean: h.Mean(), P50: h.Percentile(50), P95: h.Percentile(95), P99: h.Percentile(99)}
}

// LintExposition is the promtool-shaped checker the CI smoke job runs
// against the /metricz OpenMetrics exposition — stdlib-only, mirroring
// `promtool check metrics`-adjacent parse rules:
//
//   - metric and label names match the Prometheus grammar
//   - TYPE lines precede their family's samples, appear at most once,
//     and carry a known type; HELP at most once per family
//   - families are contiguous (no interleaving) and samples parse as
//     <name>{labels} <value> with a float-parseable value (a counter's
//     `_total` samples belong to the family TYPE-declared without it)
//   - no duplicate name+labelset
//   - histogram families have ascending cumulative le buckets ending
//     in +Inf, plus _sum and _count, with _count equal to the +Inf
//     bucket
//   - `# {...} value [timestamp]` exemplars appear only on _bucket and
//     _total samples, carry a trace_id, and fall inside their bucket
//   - the exposition ends with `# EOF`
//
// resolveTrace, when non-nil, is the retention-consistency check: every
// exemplar's trace_id must resolve (heliosctl points it at
// /tracez?id=..., tests at Tracer.Retained), so a bucket deep-linking to
// an evicted trace is a lint error. It returns the first violation
// found, prefixed with its line number.
func LintExposition(r io.Reader, resolveTrace func(traceID string) bool) error {
	l := &promLinter{
		types:   map[string]string{},
		helped:  map[string]bool{},
		closed:  map[string]bool{},
		seen:    map[string]bool{},
		hists:   map[string]*histCheck{},
		resolve: resolveTrace,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if err := l.line(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if line == 0 {
		return fmt.Errorf("empty exposition")
	}
	return l.finish()
}

type histCheck struct {
	lastLE   float64
	haveInf  bool
	infCount float64
	count    float64
	haveCnt  bool
	haveSum  bool
}

type promLinter struct {
	types   map[string]string // family → declared type
	helped  map[string]bool
	closed  map[string]bool // family had samples and a later family began
	seen    map[string]bool // name+labels duplicates
	hists   map[string]*histCheck
	cur     string // family currently being emitted
	resolve func(string) bool
	sawEOF  bool
}

var (
	promHelpRe     = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$`)
	promTypeRe     = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|unknown)$`)
	promSampleRe   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)(\s+\d+)?\s*$`)
	promLabelRe    = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
	promExemplarRe = regexp.MustCompile(`^\{([^}]*)\} (\S+)( (\S+))?$`)
)

// family strips histogram/summary sample suffixes to the declaring
// family name when that family was TYPE-declared, and the `_total`
// suffix of counter samples.
func (l *promLinter) family(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t := l.types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	if base, ok := strings.CutSuffix(name, "_total"); ok {
		if l.types[base] == "counter" {
			return base
		}
	}
	return name
}

func (l *promLinter) enter(fam string) error {
	if l.cur == fam {
		return nil
	}
	if l.cur != "" {
		l.closed[l.cur] = true
	}
	if l.closed[fam] {
		return fmt.Errorf("family %q reappears after other families (samples must be grouped)", fam)
	}
	l.cur = fam
	return nil
}

func (l *promLinter) line(s string) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	if l.sawEOF {
		return fmt.Errorf("content after # EOF: %q", s)
	}
	if strings.HasPrefix(s, "#") {
		if s == "# EOF" {
			l.sawEOF = true
			return nil
		}
		if m := promHelpRe.FindStringSubmatch(s); m != nil {
			if l.helped[m[1]] {
				return fmt.Errorf("second HELP for %q", m[1])
			}
			l.helped[m[1]] = true
			return l.enter(m[1])
		}
		if m := promTypeRe.FindStringSubmatch(s); m != nil {
			if _, dup := l.types[m[1]]; dup {
				return fmt.Errorf("second TYPE for %q", m[1])
			}
			l.types[m[1]] = m[2]
			return l.enter(m[1])
		}
		if strings.HasPrefix(s, "# HELP") || strings.HasPrefix(s, "# TYPE") {
			return fmt.Errorf("malformed comment line %q", s)
		}
		return nil // free-form comment
	}
	s, ex, err := l.splitExemplar(s)
	if err != nil {
		return err
	}
	m := promSampleRe.FindStringSubmatch(s)
	if m == nil {
		return fmt.Errorf("unparseable sample line %q", s)
	}
	name, rawLabels, rawValue := m[1], m[3], m[4]
	if ex != nil {
		if !strings.HasSuffix(name, "_bucket") && !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("exemplar on %q (only _bucket and _total samples may carry exemplars)", name)
		}
	}
	value, err := parsePromValue(rawValue)
	if err != nil {
		return fmt.Errorf("sample %q: %w", name, err)
	}
	var le string
	canon := name
	var nonLE []string
	if rawLabels != "" {
		pairs := splitLabels(rawLabels)
		var parts []string
		for _, pair := range pairs {
			lm := promLabelRe.FindStringSubmatch(pair)
			if lm == nil {
				return fmt.Errorf("bad label %q in %q", pair, name)
			}
			if lm[1] == "le" {
				le = lm[2]
			} else {
				nonLE = append(nonLE, lm[1]+"="+lm[2])
			}
			parts = append(parts, lm[1]+"="+lm[2])
		}
		sort.Strings(parts)
		canon += "{" + strings.Join(parts, ",") + "}"
	}
	if l.seen[canon] {
		return fmt.Errorf("duplicate sample %q", canon)
	}
	l.seen[canon] = true
	fam := l.family(name)
	if err := l.enter(fam); err != nil {
		return err
	}
	typ, declared := l.types[fam]
	if !declared {
		return fmt.Errorf("sample %q lacks a preceding TYPE declaration", name)
	}
	if typ == "histogram" {
		// A vector histogram family holds one independent bucket series
		// per non-le label set; bucket ordering and the +Inf/_count
		// equation hold within a series, not across the family.
		sort.Strings(nonLE)
		series := fam + "{" + strings.Join(nonLE, ",") + "}"
		return l.histSample(fam, series, name, le, value, ex)
	}
	return nil
}

// lintExemplar is a parsed `# {labels} value [timestamp]` sample tail.
type lintExemplar struct {
	traceID string
	value   float64
}

// splitExemplar peels an OpenMetrics exemplar off a sample line,
// validating its syntax and (when a resolver is installed) that its
// trace_id resolves to a retained trace. Returns the line with the
// exemplar removed.
func (l *promLinter) splitExemplar(s string) (string, *lintExemplar, error) {
	idx := strings.Index(s, " # ")
	if idx < 0 {
		return s, nil, nil
	}
	tail := s[idx+3:]
	m := promExemplarRe.FindStringSubmatch(tail)
	if m == nil {
		return s, nil, fmt.Errorf("malformed exemplar %q", tail)
	}
	rawLabels, rawValue, rawTS := m[1], m[2], m[4]
	value, err := parsePromValue(rawValue)
	if err != nil {
		return s, nil, fmt.Errorf("exemplar value: %w", err)
	}
	if rawTS != "" {
		if _, err := strconv.ParseFloat(rawTS, 64); err != nil {
			return s, nil, fmt.Errorf("exemplar timestamp %q: %w", rawTS, err)
		}
	}
	ex := &lintExemplar{value: value}
	if rawLabels != "" {
		for _, pair := range splitLabels(rawLabels) {
			lm := promLabelRe.FindStringSubmatch(pair)
			if lm == nil {
				return s, nil, fmt.Errorf("bad exemplar label %q", pair)
			}
			if lm[1] == "trace_id" {
				ex.traceID = lm[2]
			}
		}
	}
	if ex.traceID == "" {
		return s, nil, fmt.Errorf("exemplar lacks a trace_id label: %q", tail)
	}
	if l.resolve != nil && !l.resolve(ex.traceID) {
		return s, nil, fmt.Errorf("exemplar trace_id=%q does not resolve to a retained trace", ex.traceID)
	}
	return s[:idx], ex, nil
}

func (l *promLinter) histSample(fam, series, name, le string, value float64, ex *lintExemplar) error {
	hc := l.hists[series]
	if hc == nil {
		hc = &histCheck{lastLE: math.Inf(-1)}
		l.hists[series] = hc
	}
	switch name {
	case fam + "_bucket":
		if le == "" {
			return fmt.Errorf("histogram bucket of %q lacks an le label", fam)
		}
		bound, err := parsePromValue(le)
		if err != nil {
			return fmt.Errorf("histogram %q le=%q: %w", fam, le, err)
		}
		if bound <= hc.lastLE {
			return fmt.Errorf("histogram %q buckets out of order at le=%q", fam, le)
		}
		if value < hc.infCount {
			return fmt.Errorf("histogram %q bucket counts not cumulative at le=%q", fam, le)
		}
		if ex != nil && (ex.value > bound || ex.value <= hc.lastLE) {
			return fmt.Errorf("histogram %q exemplar value %v outside bucket (%v, %v]",
				fam, ex.value, hc.lastLE, bound)
		}
		hc.lastLE = bound
		hc.infCount = value
		if math.IsInf(bound, +1) {
			hc.haveInf = true
		}
	case fam + "_sum":
		hc.haveSum = true
	case fam + "_count":
		hc.haveCnt = true
		hc.count = value
	case fam:
		return fmt.Errorf("histogram %q has a bare sample (expected _bucket/_sum/_count)", fam)
	}
	return nil
}

func (l *promLinter) finish() error {
	// Deterministic iteration: report the lexically first broken series.
	series := make([]string, 0, len(l.hists))
	for s := range l.hists {
		series = append(series, s)
	}
	sort.Strings(series)
	for _, s := range series {
		hc := l.hists[s]
		if !hc.haveInf {
			return fmt.Errorf("histogram series %q lacks a +Inf bucket", s)
		}
		if !hc.haveSum || !hc.haveCnt {
			return fmt.Errorf("histogram series %q lacks _sum or _count", s)
		}
		if hc.count != hc.infCount {
			return fmt.Errorf("histogram series %q _count %v != +Inf bucket %v", s, hc.count, hc.infCount)
		}
	}
	if !l.sawEOF {
		return fmt.Errorf("OpenMetrics exposition does not end with # EOF")
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("non-numeric value %q", s)
	}
	return v, nil
}

// splitLabels splits `a="x",b="y"` on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQ, esc := false, false
	for _, r := range s {
		switch {
		case esc:
			esc = false
			cur.WriteRune(r)
		case r == '\\' && inQ:
			esc = true
			cur.WriteRune(r)
		case r == '"':
			inQ = !inQ
			cur.WriteRune(r)
		case r == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}
