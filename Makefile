# Mirrors .github/workflows/ci.yml so local runs and CI agree.

GO ?= go

.PHONY: all build lint test race soak fuzz-short experiments-smoke obs-smoke report-smoke bench-smoke heliosbench-test serve-smoke telemetry-smoke

all: build lint test

build:
	$(GO) build ./...

# lint = the CI lint job: gofmt, go vet, the repo's own heliosvet
# analyzer suite, and staticcheck if it is installed (CI installs it;
# offline dev boxes may not have it, so it is soft here and hard in CI).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/heliosvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Matches the CI soak step: the service chaos soak five times under the
# race detector, so a contract violation that fails one run in a few
# cannot pass on a lucky run.
soak:
	$(GO) test -race -count=5 -run TestServiceSoak ./internal/serve

# Matches the CI fuzz job budgets.
fuzz-short:
	$(GO) test -fuzz=FuzzReadFrom -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzPipelineModesAgree -fuzztime=30s ./internal/ooo

experiments-smoke:
	$(GO) run ./cmd/experiments -id fig2 -insts 2000 -metrics

# Matches the CI bench-smoke job: every benchmark must still compile and
# complete one iteration, so a benchmark cannot bit-rot unnoticed. The
# exact cycles and allocations are gated by the ledger tests in `test`.
bench-smoke:
	$(GO) test -run 'Benchmark' -bench . -benchtime 1x ./...

# Matches the CI bench-smoke job's heliosbench step. heliosbench is a
# nested module, so the root ./... never compiles it; this catches an
# internal API change that would break the benchmark pipeline.
heliosbench-test:
	cd heliosbench && $(GO) vet . && $(GO) test .

# Matches the CI heliosd-smoke job: build heliosd + heliosctl, drive
# every endpoint plus the hostile-input taxonomy, SIGTERM mid-flight,
# and assert a clean drain with exit 0.
serve-smoke:
	./scripts/heliosd_smoke.sh

# Matches the CI telemetry-smoke job: heliosd with span tracing on, a
# cached + uncached + observed request mix, OpenMetrics exposition lint,
# obs-artifact byte-identity against heliossim, and a Perfetto trace.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# Matches the CI obs-smoke job: one observed run producing a
# Konata-loadable pipeline trace plus the interval metrics CSV.
obs-smoke:
	mkdir -p obs-artifacts
	$(GO) run ./cmd/heliossim -workload crc32 -insts 50000 \
		-pipeview obs-artifacts/crc32.pipeview \
		-events obs-artifacts/crc32.events.ndjson \
		-interval-metrics obs-artifacts/crc32.intervals.csv \
		-interval 1000

# Matches the CI report-smoke job: simulate one MiBench kernel under the
# NoFusion baseline and Helios, emit per-run manifests, and render the
# cross-run differential report.
report-smoke:
	mkdir -p report-artifacts/baseline report-artifacts/helios
	$(GO) run ./cmd/heliossim -workload bitcount -insts 50000 -mode NoFusion \
		-manifest report-artifacts/baseline/bitcount.json
	$(GO) run ./cmd/heliossim -workload bitcount -insts 50000 -mode Helios \
		-manifest report-artifacts/helios/bitcount.json
	$(GO) run ./cmd/heliosreport \
		-baseline report-artifacts/baseline -target report-artifacts/helios \
		-baseline-label NoFusion -target-label Helios \
		-out report-artifacts/diff.md -csv report-artifacts/diff.csv
	@head -n 30 report-artifacts/diff.md
