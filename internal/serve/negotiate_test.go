package serve

import (
	"io"
	"net/http"
	"testing"
)

// TestNegotiateMetrics pins the two-way /metricz format rule: an
// explicit ?format= wins outright and anything but json or openmetrics
// is a typed 400; otherwise an Accept header naming
// application/openmetrics-text at a nonzero quality selects OpenMetrics
// and everything else gets JSON.
func TestNegotiateMetrics(t *testing.T) {
	cases := []struct {
		name, format, accept string
		wantOM               bool
		wantErr              bool
	}{
		{"no header defaults to json", "", "", false, false},
		{"format json", "json", "", false, false},
		{"format prometheus", "prometheus", "", false, true}, // not a form /metricz serves
		{"format text alias", "text", "", false, true},
		{"format openmetrics", "openmetrics", "", true, false},
		{"format overrides accept", "json", "application/openmetrics-text", false, false},
		{"unknown format is a typed 400", "promtheus", "", false, true},

		{"curl default */*", "", "*/*", false, false},
		{"exact text/plain", "", "text/plain", false, false},
		{"exact openmetrics", "", "application/openmetrics-text", true, false},
		{"exact json", "", "application/json", false, false},
		{"text wildcard", "", "text/*", false, false},
		{"application wildcard", "", "application/*", false, false},

		{"server preference breaks exact ties", "", "text/plain, application/openmetrics-text", true, false},
		{"prometheus scrape header", "", "application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.3,*/*;q=0.1", true, false},

		{"q=0 excludes the type", "", "application/openmetrics-text;q=0", false, false},
		{"all offers at q=0 fall back to json", "", "text/plain;q=0, application/openmetrics-text;q=0", false, false},
		{"malformed q ignores the element", "", "application/openmetrics-text;q=banana", false, false},
		{"malformed element does not poison the rest", "", "text/plain;q=banana, application/openmetrics-text", true, false},
		{"unknown types are ignored", "", "application/xml, image/png", false, false},
		{"whitespace and case tolerated", "", " APPLICATION/OpenMetrics-Text ; q=0.7 , application/json;q=0.2", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := wantOpenMetrics(tc.format, tc.accept)
			if (err != nil) != tc.wantErr {
				t.Fatalf("wantOpenMetrics(%q, %q) err = %v, wantErr %t", tc.format, tc.accept, err, tc.wantErr)
			}
			if err != nil {
				if err.Kind != ErrBadRequest {
					t.Fatalf("error kind = %s, want %s", err.Kind, ErrBadRequest)
				}
				return
			}
			if got != tc.wantOM {
				t.Errorf("wantOpenMetrics(%q, %q) = %t, want %t", tc.format, tc.accept, got, tc.wantOM)
			}
		})
	}
}

// TestMetriczUnknownFormatTyped drives the misspelled-format rule
// through the HTTP surface: the response must be the taxonomy's typed
// 400, not a silent fallback exposition a scraper would misparse.
func TestMetriczUnknownFormatTyped(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/metricz?format=promtheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.Kind != ErrBadRequest {
		t.Errorf("kind = %s, want %s", e.Kind, ErrBadRequest)
	}
}
