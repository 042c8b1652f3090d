package report_test

import (
	"context"
	"testing"

	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/report"
)

// renderOnce replays the given workloads from one shared recording
// cache under baseline and Helios configurations, builds manifests with
// a pinned build identity, and renders the diff.
func renderOnce(t *testing.T, h *experiments.Harness, names []string) (string, string) {
	t.Helper()
	ctx := context.Background()
	build := report.BuildInfo{Module: "helios", Version: "test", Go: "test", Revision: "test"}
	var base, target []*report.Manifest
	for _, name := range names {
		for _, mode := range []fusion.Mode{fusion.ModeNoFusion, fusion.ModeHelios} {
			r, err := h.Suite.Get(ctx, name, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			m := report.NewManifest(name, mode, ooo.DefaultConfig(mode), r.Stats)
			m.Build = build // pin: only the simulated stats may vary
			if mode == fusion.ModeNoFusion {
				base = append(base, m)
			} else {
				target = append(target, m)
			}
		}
	}
	d := report.NewDiff("baseline", base, "helios", target)
	md, err := d.Markdown()
	if err != nil {
		t.Fatalf("markdown: %v", err)
	}
	return md, d.CSV()
}

// TestReportReplayByteIdentical is the acceptance check for the whole
// record-once/replay-many → manifest → diff chain: rendering the report
// twice from two independent replays of the same recordings must
// produce byte-identical markdown and CSV.
func TestReportReplayByteIdentical(t *testing.T) {
	names := []string{"bitcount", "crc32"}
	h1 := experiments.New(2000)
	md1, csv1 := renderOnce(t, h1, names)
	h2 := experiments.New(2000)
	md2, csv2 := renderOnce(t, h2, names)
	if md1 != md2 {
		t.Errorf("markdown differs across two replays of the same workloads")
	}
	if csv1 != csv2 {
		t.Errorf("CSV differs across two replays of the same workloads")
	}
	if len(md1) == 0 || len(csv1) == 0 {
		t.Fatalf("empty report output")
	}
}
