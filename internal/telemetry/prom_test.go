package telemetry_test

import (
	"encoding/json"
	"strings"
	"testing"

	"helios/internal/telemetry"
)

func TestPromWriterPassesOwnLint(t *testing.T) {
	var h telemetry.Histogram
	for _, v := range []uint64{0, 3, 17, 900, 70000, 1 << 30} {
		h.Observe(v, 0, 0)
	}
	h.Observe(900, 7, 1_500_000) // the exemplar of the 900 µs bucket
	var sb strings.Builder
	err := telemetry.WriteOpenMetrics(&sb, []telemetry.Family{
		telemetry.Counter("heliosd_requests", "Requests admitted.", 42),
		{Name: "heliosd_requests_rejected", Type: "counter", Help: "Rejected requests by reason.",
			Label: "reason", Series: []telemetry.Series{
				{LabelValue: "overload", Value: 7},
				{LabelValue: "draining", Value: 1},
			}},
		telemetry.Gauge("heliosd_inflight", "In-flight requests.", 3),
		{Name: "heliosd_request_duration_microseconds", Type: "histogram", Help: "Request latency.",
			Series: []telemetry.Series{{Hist: &h}}},
	})
	if err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	out := sb.String()
	resolve := func(traceID string) bool { return traceID == "7" }
	if err := telemetry.LintExposition(strings.NewReader(out), resolve); err != nil {
		t.Fatalf("own output fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE heliosd_requests counter",
		"heliosd_requests_total 42",
		`heliosd_requests_rejected_total{reason="overload"} 7`,
		"# TYPE heliosd_request_duration_microseconds histogram",
		`heliosd_request_duration_microseconds_bucket{le="1023"} 5 # {trace_id="7"} 900 1.500000`,
		`heliosd_request_duration_microseconds_bucket{le="+Inf"} 7`,
		"heliosd_request_duration_microseconds_count 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The 2^30 sample clamps into the last finite bucket, so the final
	// finite bucket already equals the total count.
	if !strings.Contains(out, `heliosd_request_duration_microseconds_bucket{le="16777215"} 7`) {
		t.Fatalf("clamped tail not in final finite bucket:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", out)
	}

	// A trace that left the retention ring loses its exemplar.
	h.KeepExemplars(func(uint64) bool { return false })
	sb.Reset()
	if err := telemetry.WriteOpenMetrics(&sb, []telemetry.Family{{Name: "h", Type: "histogram",
		Series: []telemetry.Series{{Hist: &h}}}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatalf("exemplar survived KeepExemplars:\n%s", sb.String())
	}
}

func TestPromWriterRefusesSplitFamily(t *testing.T) {
	var sb strings.Builder
	err := telemetry.WriteOpenMetrics(&sb, []telemetry.Family{
		telemetry.Counter("a", "a", 1),
		telemetry.Counter("b", "b", 2),
		telemetry.Counter("a", "a again", 3),
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-family error", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("a refused table still wrote %q", sb.String())
	}
}

// TestMetricsJSONShape pins the JSON rendering of a table: unlabelled
// values are numbers, labelled families objects keyed by label value,
// histograms count/mean/p50/p95/p99 summaries.
func TestMetricsJSONShape(t *testing.T) {
	var h telemetry.Histogram
	h.Observe(100, 0, 0)
	h.Observe(100, 0, 0)
	b, err := json.Marshal(telemetry.MetricsJSON([]telemetry.Family{
		telemetry.Gauge("g", "", 3),
		{Name: "c", Type: "counter", Label: "reason", Series: []telemetry.Series{
			{LabelValue: "overload", Value: 7},
			{LabelValue: "draining", Value: 1},
		}},
		{Name: "h", Type: "histogram", Series: []telemetry.Series{{Hist: &h}}},
		{Name: "v", Type: "histogram", Label: "span", Series: []telemetry.Series{{LabelValue: "replay", Hist: &h}}},
		{Name: "empty", Type: "counter", Label: "policy"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"c":{"draining":1,"overload":7},"empty":{},"g":3,` +
		`"h":{"count":2,"mean":100,"p50":111,"p95":111,"p99":111},` +
		`"v":{"replay":{"count":2,"mean":100,"p50":111,"p95":111,"p99":111}}}`
	if string(b) != want {
		t.Fatalf("MetricsJSON =\n%s\nwant\n%s", b, want)
	}
}

func TestLintExposition(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error, "" for pass
	}{
		{"minimal counter", "# HELP a x\n# TYPE a counter\na_total 1\n# EOF\n", ""},
		{"untyped sample", "a_total 1\n# EOF\n", "TYPE"},
		{"bad name", "# TYPE 9bad counter\n9bad 1\n# EOF\n", "malformed"},
		{"bad value", "# TYPE a counter\na pickle\n# EOF\n", "non-numeric"},
		{"duplicate sample", "# TYPE a counter\na 1\na 2\n# EOF\n", "duplicate"},
		{"split family", "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# HELP a again\n# EOF\n", "grouped"},
		{"double TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n# EOF\n", "second TYPE"},
		{
			"histogram ok",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 1` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\n" +
				"h_sum 3\nh_count 2\n# EOF\n",
			"",
		},
		{
			"histogram no inf",
			"# TYPE h histogram\n" + `h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n# EOF\n",
			"+Inf",
		},
		{
			"histogram out of order",
			"# TYPE h histogram\n" +
				`h_bucket{le="5"} 1` + "\n" +
				`h_bucket{le="2"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n# EOF\n",
			"out of order",
		},
		{
			"histogram not cumulative",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n# EOF\n",
			"cumulative",
		},
		{
			"histogram count mismatch",
			"# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n# EOF\n",
			"_count",
		},
		{"empty", "", "empty"},
		{"free comment ok", "# just a comment\n# TYPE a counter\na 1\n# EOF\n", ""},
		{"missing EOF", "# TYPE a counter\na_total 1\n", "# EOF"},
		{"content after EOF", "# TYPE a counter\na_total 1\n# EOF\na_total 2\n", "after # EOF"},
		{
			"exemplar ok",
			"# TYPE h histogram\n" +
				`h_bucket{le="10"} 1 # {trace_id="4"} 7 1.5` + "\n" +
				`h_bucket{le="+Inf"} 1` + "\nh_sum 7\nh_count 1\n# EOF\n",
			"",
		},
		{"exemplar on a gauge", "# TYPE g gauge\n" + `g 1 # {trace_id="4"} 1` + "\n# EOF\n", "only _bucket and _total"},
		{"exemplar without trace_id", "# TYPE a counter\n" + `a_total 1 # {span="x"} 1` + "\n# EOF\n", "trace_id"},
		{
			"exemplar outside its bucket",
			"# TYPE h histogram\n" +
				`h_bucket{le="10"} 1 # {trace_id="4"} 70` + "\n" +
				`h_bucket{le="+Inf"} 1` + "\nh_sum 7\nh_count 1\n# EOF\n",
			"outside bucket",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := telemetry.LintExposition(strings.NewReader(tc.in), nil)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("lint = %v, want pass", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("lint = %v, want error containing %q", err, tc.want)
			}
		})
	}

	// The retention hook turns a dangling exemplar into a lint error.
	dangling := "# TYPE a counter\n" + `a_total 1 # {trace_id="9"} 1` + "\n# EOF\n"
	err := telemetry.LintExposition(strings.NewReader(dangling), func(string) bool { return false })
	if err == nil || !strings.Contains(err.Error(), "does not resolve") {
		t.Fatalf("lint = %v, want a dangling-exemplar error", err)
	}
}
