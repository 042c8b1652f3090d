package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"helios/internal/serve"
)

// TestRetryFollowsErrorKind drives the retry loop against a server that
// fails the first attempt and succeeds after. A typed error retries
// exactly when its kind says so; an untyped 5xx always retries.
func TestRetryFollowsErrorKind(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		kind      serve.ErrKind // "" sends an untyped body
		wantTries int32
	}{
		{"deadline", 504, serve.ErrDeadline, 1},
		{"overload", 429, serve.ErrOverload, 2},
		{"draining", 503, serve.ErrDraining, 2},
		{"engine-fault", 500, serve.ErrEngine, 2},
		{"untyped", 502, "", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tries atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tries.Add(1) > 1 {
					w.Write([]byte(`{}`))
					return
				}
				w.WriteHeader(tc.status)
				if tc.kind == "" {
					w.Write([]byte("bad gateway"))
					return
				}
				json.NewEncoder(w).Encode(&serve.Error{Kind: tc.kind, Msg: "injected"})
			}))
			defer ts.Close()

			c := &client{base: ts.URL, retries: 1}
			status, _ := c.post("/v1/run", serve.RunRequest{Workload: "crc32"})
			if got := tries.Load(); got != tc.wantTries {
				t.Errorf("%d %s: %d attempts, want %d", tc.status, tc.name, got, tc.wantTries)
			}
			wantStatus := 200
			if tc.wantTries == 1 {
				wantStatus = tc.status
			}
			if status != wantStatus {
				t.Errorf("%d %s: final status %d, want %d", tc.status, tc.name, status, wantStatus)
			}
		})
	}
}
