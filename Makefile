# GEACC — conflict-aware event-participant arrangement.
# `make help` lists targets.

GO        ?= go
PKGS      := ./...
# Packages whose concurrency is exercised hardest; `make race` runs them
# under the race detector (the full suite under -race is `make race-all`).
RACE_PKGS := ./internal/obs ./internal/server ./internal/core ./internal/decomp ./internal/store ./internal/solvecache ./internal/partition ./internal/mincostflow
BENCH     ?= .
BENCH_FLAGS := -benchmem -benchtime=1x

.PHONY: build test test-service perfbench-test smoke-probes load-smoke race race-all vet bench bench-json bench-compare bench-server cover clean run-server help

## build: compile every package and the command-line tools
build:
	$(GO) build $(PKGS)

## test: run the full test suite (tier-1 gate, with go vet's default checks)
test:
	$(GO) test $(PKGS)

## test-service: service crash-recovery e2e (build binary, stream deltas, kill -9, restart, verify)
test-service:
	GEACC_E2E=1 $(GO) test -run TestServiceE2E -v ./cmd/geacc-server

## perfbench-test: the end-to-end benchmark harness's own self-tests (perfbench is a separate module)
perfbench-test:
	cd perfbench && $(GO) test -short ./...

## smoke-probes: boot a real geacc-server and exercise healthz/readyz/statusz/metrics/stats once
smoke-probes:
	./scripts/smoke_probes.sh

## load-smoke: ~30s of closed-loop load (solves + delta streams) against a real geacc-server; fails on any 5xx
load-smoke:
	./scripts/load_smoke.sh

## race: race-detector pass over the concurrency-heavy packages
race:
	$(GO) test -race $(RACE_PKGS)

## race-all: the full suite under the race detector (slow)
race-all:
	$(GO) test -race $(PKGS)

## vet: static analysis; must stay clean
vet:
	$(GO) vet $(PKGS)

## bench: run benchmarks once through (BENCH=<regexp> to filter)
bench:
	$(GO) test -run=^$$ -bench=$(BENCH) $(BENCH_FLAGS) $(PKGS)

## bench-json: solver latency+quality snapshot on pinned instances -> BENCH_solvers.json
bench-json:
	$(GO) run ./cmd/geacc-bench -reps 3 -solvers-json BENCH_solvers.json

## bench-compare: rerun both pinned sets (solver ns/op + end-to-end server p99/throughput) and diff against the committed snapshots (fails on >20% regressions)
bench-compare:
	$(GO) run ./cmd/geacc-bench -reps 3 -compare BENCH_solvers.json
	$(GO) run ./cmd/geacc-load -compare BENCH_server.json

## bench-server: end-to-end load snapshot (self-hosted server, closed loop) -> BENCH_server.json
bench-server:
	$(GO) run ./cmd/geacc-load -pin BENCH_server.json

## cover: full suite with a coverage summary
cover:
	$(GO) test -cover $(PKGS)

## run-server: start geacc-server with the diagnostics listener on :6060
run-server:
	$(GO) run ./cmd/geacc-server -addr :8080 -debug-addr 127.0.0.1:6060

## clean: drop build artifacts and cached test results
clean:
	$(GO) clean $(PKGS)
	rm -f geacc-server geacc-solve geacc-gen geacc-bench

## help: list targets
help:
	@grep -E '^## ' $(MAKEFILE_LIST) | sed 's/^## /  /'
