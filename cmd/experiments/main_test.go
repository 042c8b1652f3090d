package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins experiments' flags: it renders the figures and
// nothing else. Single runs, manifests and obs streams are heliossim's.
func TestFlagSurface(t *testing.T) {
	var out, usage bytes.Buffer
	if code := run([]string{"-h"}, &out, &usage); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	slices.Sort(got)
	want := []string{"id", "insts", "csv", "workloads", "metrics", "walltime", "timeout", "parallel", "trace"}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestFailedRunKeepsTrace: an experiment cut short by -timeout still
// writes its scheduler timeline before exiting 1.
func TestFailedRunKeepsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var out, stderr bytes.Buffer
	code := run([]string{"-id", "fig10", "-workloads", "crc32,sha", "-timeout", "100ms", "-trace", path}, &out, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "fig10: ") {
		t.Errorf("stderr does not name the failing experiment:\n%s", stderr.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("failed run wrote no trace: %v", err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}
