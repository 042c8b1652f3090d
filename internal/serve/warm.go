package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/report"
)

// warmCache scans dir for result manifests written by a previous
// heliosd process and installs every verifiable one into the suite's
// result cache, so a restart serves yesterday's results as cache hits
// instead of re-simulating them.
//
// The scan is deliberately paranoid — an on-disk manifest is input, not
// truth: a file is skipped (with a log line, never an error — a corrupt
// warm entry must not stop boot) unless its schema version matches,
// its engine version matches the running binary, and its recorded
// ResultKey reproduces bit-for-bit from its own (workload, config,
// budget, engine) fields. That last check makes cache poisoning by a
// stale or hand-edited manifest structurally impossible: the key IS
// the content hash the serve path would compute for the same request.
//
// Unlike report.LoadDir this scanner tolerates duplicates (the same
// workload under many modes/budgets is exactly what a result cache
// holds) and foreign files.
func (s *Server) warmCache(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.logf("serve: cache warm scan %s: %v", dir, err)
		return 0
	}
	warmed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			s.logf("serve: cache warm: read %s: %v", path, err)
			continue
		}
		var m report.Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			s.logf("serve: cache warm: parse %s: %v", path, err)
			continue
		}
		switch {
		case m.SchemaVersion != report.SchemaVersion:
			s.logf("serve: cache warm: %s has schema %d, want %d", path, m.SchemaVersion, report.SchemaVersion)
			continue
		case m.ResultKey == "" || m.Budget == 0:
			s.logf("serve: cache warm: %s lacks a result key (not written by heliosd?)", path)
			continue
		case m.Engine != core.EngineVersion():
			s.logf("serve: cache warm: %s is from engine %s, this binary is %s", path, m.Engine, core.EngineVersion())
			continue
		}
		key, err := resultKey(m.Workload, m.Config, m.Budget, m.Engine)
		if err != nil || key != m.ResultKey {
			s.logf("serve: cache warm: %s result key does not reproduce (stale or edited), skipping", path)
			continue
		}
		mode, ok := fusion.ModeByName(m.Mode)
		if !ok || mode != m.Config.Mode {
			s.logf("serve: cache warm: %s mode %q disagrees with config, skipping", path, m.Mode)
			continue
		}
		if s.suite.SeedResult(m.Workload, m.Config, m.Budget, &core.Result{Workload: m.Workload, Mode: m.Config.Mode, Stats: m.Stats}) {
			warmed++
		}
	}
	s.logf("serve: cache warm: %d result(s) restored from %s", warmed, dir)
	return warmed
}
