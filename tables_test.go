package helios_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/ooo"
)

var update = flag.Bool("update", false, "rewrite testdata/tables_20k.golden")

// TestTablesGolden pins every figure and table, and the statistics of
// every workload×mode cell under them, at 20,000 instructions per run.
// The golden holds the rendered text of each experiments.IDs() entry
// followed by one SHA-256 per cell of its ooo.Stats JSON, the `stats`
// field /v1/run serves. Like the exact ledger, a change that moves it
// reruns `go test -run TestTablesGolden . -update` and gives the reason
// in CHANGES.md; an optimisation leaves it alone.
func TestTablesGolden(t *testing.T) {
	ctx := context.Background()
	h := experiments.New(20_000)
	tables, err := h.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, id := range experiments.IDs() {
		fmt.Fprintf(&b, "# %s\n%s\n", id, tables[id])
	}
	b.WriteString("# cells: SHA-256 of each cell's ooo.Stats JSON\n")
	for _, name := range h.Workloads {
		for _, m := range fusion.Modes {
			r, err := h.Suite.Get(ctx, name, m)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s/%s %s\n", name, m, statsDigest(t, &r.Stats))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "tables_20k.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s line %d:\n  got:  %s\n  want: %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines rendered, golden has %d", path, len(g), len(w))
	}
}

// statsDigest is the SHA-256 of a cell's statistics in their JSON form,
// heliosbench's rule for its paper-suite cells.
func statsDigest(t *testing.T, st *ooo.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
