package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// traceDir is where a traced run writes its spans and report, relative
// to the checkout's root.
var traceDir = filepath.Join(".bench_build", "trace")

// writeTraceReport writes a traced run's spans (NDJSON) and its "where
// the host time goes" report (markdown) into traceDir.
func writeTraceReport(o options, out *outcome) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".spans.ndjson")
	if err != nil {
		return err
	}
	l := &spanLog{spans: out.spans}
	if err := l.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".md", []byte(renderReport(o, out)), 0o644)
}

// layerMoves maps each layer's per-layer metrics to the end-to-end
// metrics they should move, and on which workload.
var layerMoves = []struct{ prefix, layer, moves string }{
	{"record.", "record (workloads, asm, emu, trace)", "wall_s on paper-suite (~8 %); p99_ms on serve-mix (cold class)"},
	{"replay.", "replay (ooo with fusion, helios, cache, branch, memdep)", "wall_s and sim_minsts_per_s on paper-suite; p99_ms and knee_rps on serve-mix; almost nothing on observed-replay"},
	{"sched.", "core scheduler and experiments (sched.*, core.*, exp.*)", "wall_s on paper-suite"},
	{"serve.", "serve", "p50_ms (hits), p99_ms and knee_rps (misses, colds) on serve-mix"},
	{"obs.", "obs", "wall_s and sim_minsts_per_s on observed-replay; nothing on paper-suite"},
}

// workloadWhy reads the workload's one-line reason from BENCHMARK.json
// at the checkout's root, if it is there.
func workloadWhy(name string) string {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return ""
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
	}
	if json.Unmarshal(b, &bench) != nil {
		return ""
	}
	for _, w := range bench.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

func renderReport(o options, out *outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Traced run: %s (seed %d, %ds)\n\n", o.workload, o.seed, int(o.seconds.Seconds()))
	if why := workloadWhy(o.workload); why != "" {
		fmt.Fprintf(&b, "Why this workload exists: %s.\n\n", why)
	}
	b.WriteString("Spans are recorded by the benchmark around the program's public calls; ")
	b.WriteString("end-to-end metrics come from untraced runs.\n\n")
	b.WriteString("## Metric → layer → workload\n\n| layer | should move |\n|---|---|\n")
	for _, lm := range layerMoves {
		for name := range out.metrics {
			if strings.HasPrefix(name, lm.prefix) {
				fmt.Fprintf(&b, "| %s | %s |\n", lm.layer, lm.moves)
				break
			}
		}
	}
	b.WriteString("\n")
	b.WriteString("## Where the host time goes\n\n")
	b.WriteString("Self time is a span's duration minus the part of it that its child spans cover.\n\n")
	b.WriteString("| layer | spans | busy s | self s |\n|---|---:|---:|---:|\n")
	for _, lt := range selfTimes(out.spans) {
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f |\n", lt.Layer, lt.Spans, secs(lt.Busy), secs(lt.Self))
	}
	b.WriteString("\n## Per-layer metrics\n\nA dash marks a layer this workload does not exercise; the result line reports it as 0.\n\n")
	b.WriteString("| metric | value | unit |\n|---|---:|---|\n")
	for _, d := range perLayer() {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(&b, "| %s | — | %s |\n", d.name, d.unit)
			continue
		}
		fmt.Fprintf(&b, "| %s | %.4g | %s |\n", d.name, v, d.unit)
	}
	b.WriteString("\n## Notes\n\n")
	for _, n := range out.notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	fmt.Fprintf(&b, "- operations attempted %d, failed %d\n", out.attempted, out.failed)
	return b.String()
}
