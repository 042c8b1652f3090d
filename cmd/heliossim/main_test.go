package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"helios/internal/report"
	"helios/internal/workloads"
)

// runSim drives the driver in-process and returns its exit status and
// both output streams.
func runSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// flagNames lists the flags a -h usage text declares, sorted.
func flagNames(usage string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage, -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return names
}

// TestFlagSurface pins heliossim's flags: one workload, one run. Trace
// capture is rvemu's job, the figures are experiments' job.
func TestFlagSurface(t *testing.T) {
	code, _, usage := runSim(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	want := []string{"workload", "mode", "insts", "list", "compare", "trace-in", "timeout",
		"manifest", "pipeview", "events", "interval-metrics", "interval", "cpuprofile"}
	slices.Sort(want)
	if got := flagNames(usage); !slices.Equal(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestFailedRunKeepsCPUProfile: a run cut short by -timeout still
// stops the CPU profiler and flushes the profile before exiting 1.
func TestFailedRunKeepsCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "p.prof")
	code, _, stderr := runSim(t, "-workload", "xz", "-timeout", "50ms", "-cpuprofile", prof)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "crash dump:") {
		t.Errorf("stderr lacks the crash dump:\n%s", stderr)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("CPU profile is empty: the deferred StopCPUProfile never ran")
	}
}

// TestCompareExpiredTimeout: a -timeout that expires before the
// replays start fails every mode with the context error and exits 1.
func TestCompareExpiredTimeout(t *testing.T) {
	code, stdout, stderr := runSim(t, "-workload", "crc32", "-insts", "2000", "-compare", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "context deadline exceeded") {
		t.Errorf("stderr lacks the context error:\n%s", stderr)
	}
}

// ipcOf returns the IPC column of one mode's row in a -compare table.
func ipcOf(t *testing.T, table, mode string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == mode {
			return f[1]
		}
	}
	t.Fatalf("no %s row in:\n%s", mode, table)
	return ""
}

// TestTraceInHonoursBudget replays the first 5,000 instructions of a
// 20,000-instruction capture. The single run must commit exactly the
// budget and match a live run at that budget byte for byte; -compare
// must replay the same 5,000. Without -insts the replay stops at the
// capture's bound and matches a live run at 20,000.
func TestTraceInHonoursBudget(t *testing.T) {
	w, _ := workloads.ByName("crc32")
	rec, err := w.Record(20_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crc32.htrc.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// replayMatchesLive replays the capture with extra flags and wants
	// the live run at insts instructions, byte for byte.
	replayMatchesLive := func(insts string, extra ...string) string {
		t.Helper()
		code, replayed, stderr := runSim(t, append([]string{"-trace-in", path}, extra...)...)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		if !strings.Contains(replayed, "instructions:       "+insts+" (") {
			t.Errorf("replay did not commit exactly %s instructions:\n%s", insts, replayed)
		}
		_, live, _ := runSim(t, "-workload", "crc32", "-insts", insts)
		if _, report, _ := strings.Cut(replayed, "\n\n"); report != live {
			t.Errorf("replay %v differs from the live run at %s\nreplay:\n%s\nlive:\n%s", extra, insts, report, live)
		}
		return live
	}
	replayMatchesLive("20000")
	live := replayMatchesLive("5000", "-insts", "5000")

	code, table, stderr := runSim(t, "-trace-in", path, "-insts", "5000", "-compare")
	if code != 0 {
		t.Fatalf("-compare exit %d: %s", code, stderr)
	}
	ipc := regexp.MustCompile(`(?m)^IPC:\s+(\S+)$`).FindStringSubmatch(live)
	if ipc == nil {
		t.Fatalf("no IPC line in:\n%s", live)
	}
	if got := ipcOf(t, table, "Helios"); got != ipc[1] {
		t.Errorf("-compare Helios IPC = %s, want the 5000-instruction run's %s", got, ipc[1])
	}
}

// TestLiveCompareHonoursBudget: a live -compare records -insts
// instructions and must replay them to the same budget as the single
// run, not drain the store buffer past it.
func TestLiveCompareHonoursBudget(t *testing.T) {
	_, live, _ := runSim(t, "-workload", "xz", "-insts", "20000")
	ipc := regexp.MustCompile(`(?m)^IPC:\s+(\S+)$`).FindStringSubmatch(live)
	if ipc == nil {
		t.Fatalf("no IPC line in:\n%s", live)
	}
	code, table, stderr := runSim(t, "-workload", "xz", "-insts", "20000", "-compare")
	if code != 0 {
		t.Fatalf("-compare exit %d: %s", code, stderr)
	}
	if got := ipcOf(t, table, "Helios"); got != ipc[1] {
		t.Errorf("-compare Helios IPC = %s, want the 20000-instruction run's %s", got, ipc[1])
	}
}

// TestIntervalZeroRejected: interval metrics at period 0 would write
// nothing at all, not even the CSV header, so the flag error exits 2
// before any file is created. The default period writes a series.
func TestIntervalZeroRejected(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "zero.csv")
	code, _, stderr := runSim(t, "-workload", "crc32", "-insts", "1000",
		"-interval-metrics", csv, "-interval", "0")
	if code != 2 {
		t.Errorf("-interval 0: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Errorf("-interval 0 created %s (stat err %v)", csv, err)
	}

	csv = filepath.Join(dir, "default.csv")
	if code, _, stderr := runSim(t, "-workload", "crc32", "-insts", "30000", "-interval-metrics", csv); code != 0 {
		t.Fatalf("default interval: exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(b), "\n"); rows < 2 {
		t.Errorf("default interval wrote %d CSV lines, want a header and at least one row:\n%s", rows, b)
	}
}

// TestManifestsEndToEnd writes one manifest per configuration through
// -manifest, the path `make report-smoke` takes, and diffs the two
// directories through the public loader. The loaded manifests must
// carry conserved top-down accounts.
func TestManifestsEndToEnd(t *testing.T) {
	baseDir, targetDir := t.TempDir(), t.TempDir()
	for dir, mode := range map[string]string{baseDir: "NoFusion", targetDir: "Helios"} {
		code, _, stderr := runSim(t, "-workload", "crc32", "-insts", "2000", "-mode", mode,
			"-manifest", filepath.Join(dir, "crc32.json"))
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", mode, code, stderr)
		}
	}
	base, err := report.LoadDir(baseDir)
	if err != nil {
		t.Fatalf("load baseline: %v", err)
	}
	target, err := report.LoadDir(targetDir)
	if err != nil {
		t.Fatalf("load target: %v", err)
	}
	d := report.NewDiff("baseline", base, "helios", target)
	if len(d.Pairs) != 1 || d.Pairs[0].Workload != "crc32" {
		t.Fatalf("pairs = %+v, want [crc32]", d.Pairs)
	}
	md, err := d.Markdown()
	if err != nil {
		t.Fatalf("markdown: %v", err)
	}
	if md == "" {
		t.Fatal("empty markdown")
	}
	for _, p := range d.Pairs {
		for side, m := range map[string]*report.Manifest{"base": p.Base, "target": p.Target} {
			if err := m.Stats.TopDown.CheckConservation(); err != nil {
				t.Errorf("%s: %v", side, err)
			}
		}
	}
}
