# Development entry points; CI (.github/workflows/ci.yml) runs the same
# commands. The repo is stdlib-only: no tool downloads are needed for
# build/test/lint (staticcheck/govulncheck are CI extras).

.PHONY: build test lint fmt fuzz bench perf perf-compare serve-test leak-test shard-test

build:
	go build ./...

test:
	go test ./...

# The repo's own determinism/hot-path/concurrency analyzers (see
# DESIGN.md, "Determinism invariants & lint rules"; add -json for JSONL).
lint:
	go vet ./...
	go run ./cmd/cbmalint ./...

fmt:
	gofmt -l .

FUZZTIME ?= 20s

fuzz:
	go test ./internal/pn/ -fuzz FuzzGoldBalance -fuzztime $(FUZZTIME) -run '^$$'
	go test ./internal/rx/ -fuzz FuzzFrameSync -fuzztime $(FUZZTIME) -run '^$$'
	go test ./internal/sim/ -fuzz FuzzScenarioJSON -fuzztime $(FUZZTIME) -run '^$$'

bench:
	go test ./internal/sim/ -run '^$$' -bench BenchmarkCampaignFig8a -benchtime 1x

# The repository benchmark (cbmaperf/README.md): every workload, untraced
# and traced, from one process. Each run appends its records to
# .bench_build/cbmaperf/results.jsonl; perf-compare prints per-metric
# medians, ratios and verdicts for two such ledgers, e.g.
#   make perf-compare BASE=base/results.jsonl NEW=.bench_build/cbmaperf/results.jsonl
perf:
	bash cbmaperf/run.sh --workload all --seed 1 --seconds 20

perf-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make perf-compare BASE=base.jsonl NEW=new.jsonl" >&2; exit 2; }
	bash cbmaperf/run.sh compare $(BASE) $(NEW)

# The campaign-service layers and daemon under the race detector (the
# cbmad e2e equivalence test runs real campaigns; see DESIGN.md,
# "Service architecture").
serve-test:
	go test -race -count=1 ./internal/serve/... ./cmd/cbmad/

# The goroutine-leak accounting CI runs (internal/leaktest is wired into
# every obs/serve/cbmad test package via TestMain).
leak-test:
	go test -race -count=1 -run 'Leak|Close|Drain|Churn|Timer|Daemon|Service' ./internal/obs/... ./internal/serve/... ./cmd/cbmad/

# The sharded coordinator/worker layer under the race detector:
# 1/2/4-shard bit-identical equivalence (including the subprocess wire),
# chaos reassignment, and journaled resume with zero re-execution (see
# DESIGN.md, "Distributed execution & resume").
shard-test:
	go test -race -count=1 ./internal/serve/shard/ ./internal/fault/
