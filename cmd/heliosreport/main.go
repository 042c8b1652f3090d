// Command heliosreport compares two directories of per-run manifests
// (written by `heliossim -manifest`, one run per file) and renders a
// deterministic differential report: per-workload IPC deltas decomposed
// into top-down slot-bucket movement, fusion-coverage shifts, and
// latency-histogram percentile shifts.
//
// Usage:
//
//	heliosreport -baseline base/ -target helios/            # markdown to stdout
//	heliosreport -baseline base/ -target helios/ -out d.md  # markdown to file
//	heliosreport -baseline base/ -target helios/ -csv d.csv # flat CSV too
package main

import (
	"flag"
	"fmt"
	"os"

	"helios/internal/report"
)

func main() {
	var (
		baseline    = flag.String("baseline", "", "directory of baseline run manifests (required)")
		target      = flag.String("target", "", "directory of target run manifests (required)")
		out         = flag.String("out", "", "write the markdown report here instead of stdout")
		csvOut      = flag.String("csv", "", "also write a flat per-workload CSV here")
		baseLabel   = flag.String("baseline-label", "baseline", "label for the baseline side")
		targetLabel = flag.String("target-label", "target", "label for the target side")
	)
	flag.Parse()
	if *baseline == "" || *target == "" {
		fmt.Fprintln(os.Stderr, "heliosreport: -baseline and -target are required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := report.LoadDir(*baseline)
	if err != nil {
		fatal(err)
	}
	tgt, err := report.LoadDir(*target)
	if err != nil {
		fatal(err)
	}
	d := report.NewDiff(*baseLabel, base, *targetLabel, tgt)

	md, err := d.Markdown()
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(md)
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(d.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heliosreport:", err)
	os.Exit(1)
}
