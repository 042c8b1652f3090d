// Command heliosvet is the repository's domain-specific static-analysis
// driver. It runs the internal/lint analyzers over every package of the
// module, enforcing the simulator's determinism, context, machine-
// parameter, hot-path and concurrency conventions where no test can
// (see DESIGN.md §10 for the catalog).
//
// Usage:
//
//	heliosvet          # analyze the whole module, from any directory in it
//	heliosvet -list    # print the analyzer catalog
//
// Exit status is 1 when any finding is reported, so CI can gate on it,
// and 2 on a flag error or a package argument. Under GitHub Actions
// (GITHUB_ACTIONS=true) each finding is also printed as an ::error
// annotation, making it visible inline in the PR diff.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"helios/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole driver; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heliosvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer catalog and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "heliosvet: unexpected arguments %q: it always analyzes the whole module\n", fs.Args())
		return 2
	}

	analyzers := lint.Registry()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		return fail(stderr, err)
	}
	pkgs, err := lint.Load(wd)
	if err != nil {
		return fail(stderr, err)
	}
	diags, err := lint.RunAll(analyzers, pkgs)
	if err != nil {
		return fail(stderr, err)
	}
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, d := range diags {
		rel := relTo(wd, d.Pos.Filename)
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		if annotate {
			// GitHub annotation values must stay on one line.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=heliosvet %s::%s\n",
				rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "heliosvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relTo shortens absolute diagnostic paths for readable output and
// annotation file= values.
func relTo(wd, path string) string {
	if rel, err := filepath.Rel(wd, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "heliosvet:", err)
	return 1
}
