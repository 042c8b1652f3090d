package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestFlagSurface pins heliosvet's one flag: it always analyzes the
// whole module, so its only other job is printing the catalog.
func TestFlagSurface(t *testing.T) {
	var out, usage bytes.Buffer
	if code := run([]string{"-h"}, &out, &usage); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, " ") != "list" {
		t.Errorf("flags = %v, want [list]", got)
	}
}

// TestPackageArgumentRejected: a package pattern is a usage error, not
// a narrower run.
func TestPackageArgumentRejected(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := run([]string{"./internal/serve"}, &out, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote to stdout: %q", out.String())
	}
}
