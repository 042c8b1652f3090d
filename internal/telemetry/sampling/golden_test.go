package sampling

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"helios/internal/telemetry"
)

// goldenPath holds the verdicts the five-policy chain this sampler
// replaced gave goldenStream, recorded before the chain was deleted:
// one line per trace, for Default(1) and for the chaos soak's sampler
// (the same rules with a 0/s, burst-8 bucket).
const goldenPath = "testdata/verdicts.golden"

// goldenStream is a fixed synthetic stream of 1,500 finished request
// traces. Most are healthy; about 5% carry a typed error outcome and 1%
// carry no outcome at all. Spans mix cache reads, record+replay pairs,
// degrades and replays flagged err=true, and durations are long-tailed
// (3.5% run 10–100× longer, 0.5% 1000×). Finish times come in ten
// bursts, each paced between ~1000/s and ~10/s and preceded by an idle
// gap of 0.5–4 s, so the 25/s bucket both runs dry and refills.
func goldenStream() []telemetry.TraceInfo {
	rng := rand.New(rand.NewPCG(2022, 17))
	errKinds := []string{"bad-request", "overload", "engine-fault", "deadline", "canceled", "panic"}
	paces := []int64{2_000, 10_000, 60_000, 200_000} // max gap between finishes, µs
	out := make([]telemetry.TraceInfo, 0, 1500)
	nowUS := int64(10_000_000)
	var paceUS int64
	for id := uint64(1); id <= 1500; id++ {
		if id%150 == 1 {
			nowUS += 500_000 + rng.Int64N(3_500_000)
			paceUS = paces[rng.IntN(len(paces))]
		}
		nowUS += rng.Int64N(paceUS + 1)
		dur := 200 + rng.Int64N(800)
		switch r := rng.IntN(1000); {
		case r < 5:
			dur *= 1000
		case r < 40:
			dur *= 10 + rng.Int64N(90)
		}
		ti := telemetry.TraceInfo{ID: id, Name: "POST /v1/run", StartUS: nowUS - dur, DurUS: dur}
		outcome := "ok"
		if rng.IntN(100) < 5 {
			outcome = errKinds[rng.IntN(len(errKinds))]
		}
		if rng.IntN(100) > 0 {
			ti.Attrs = []telemetry.Attr{{Key: "outcome", Value: outcome}}
		}
		ti.Spans = []telemetry.SpanInfo{{Name: "admission"}}
		switch r := rng.IntN(100); {
		case r < 8:
			ti.Spans = append(ti.Spans, telemetry.SpanInfo{Name: "record"}, telemetry.SpanInfo{Name: "replay"})
		case r < 11:
			ti.Spans = append(ti.Spans, telemetry.SpanInfo{Name: "degrade"})
		case r < 13:
			ti.Spans = append(ti.Spans, telemetry.SpanInfo{Name: "replay",
				Attrs: []telemetry.Attr{{Key: "err", Value: "true"}}})
		case r < 20:
			ti.Spans = append(ti.Spans, telemetry.SpanInfo{Name: "replay",
				Attrs: []telemetry.Attr{{Key: "err", Value: "false"}}})
		default:
			ti.Spans = append(ti.Spans, telemetry.SpanInfo{Name: "cache_read"})
		}
		out = append(out, ti)
	}
	return out
}

// goldenVerdicts feeds goldenStream to two fresh samplers and renders
// their verdicts in the golden file's format: "+policy/priority" for a
// keep, "-policy/priority" for a drop.
func goldenVerdicts(def, soak telemetry.Sampler) string {
	var b strings.Builder
	b.WriteString("# trace Default(1) soak(0/s,burst 8)\n")
	for _, ti := range goldenStream() {
		fmt.Fprintf(&b, "%d %s %s\n", ti.ID, verdictField(def.Sample(ti)), verdictField(soak.Sample(ti)))
	}
	return b.String()
}

func verdictField(v telemetry.SampleVerdict) string {
	keep := "-"
	if v.Keep {
		keep = "+"
	}
	return fmt.Sprintf("%s%s/%d", keep, v.Policy, v.Priority)
}

// TestVerdictsMatchChainGolden proves the single sampler decides
// exactly as the policy chain it replaced: same keep/drop, same policy
// name, same priority, trace by trace, for both production settings.
func TestVerdictsMatchChainGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenVerdicts(Default(1), New(1, 0, 8))
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d verdict lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
	// The stream must exercise every rule in both columns, or the
	// golden proves less than it claims.
	for col, name := range []string{"Default(1)", "soak"} {
		seen := map[string]bool{}
		for _, line := range wantLines[1:] {
			if f := strings.Fields(line); len(f) == 3 {
				seen[strings.SplitN(f[col+1][1:], "/", 2)[0]] = true
			}
		}
		for _, p := range []string{"error", "slow", "span", "rate", "floor", "none"} {
			if !seen[p] {
				t.Errorf("%s column never decides %q", name, p)
			}
		}
	}
}
