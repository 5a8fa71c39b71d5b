GO ?= go

.PHONY: all build test race pins lint fmt bench bench-smoke scenarios

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test -race -short ./...

race:
	$(GO) test -race ./...

# pins runs the testing.AllocsPerRun pins and the heap-footprint pins,
# which skip under -race, in the packages that hold the data plane, the
# heartbeat merge, the replan pipeline, the record layouts and the pool
# whose test-binary ownership check the pins run under. CI's "allocation
# pins" step runs this target.
PINS_PKGS = ./internal/bayes ./internal/wire ./internal/lanes ./internal/transport ./internal/mrt ./internal/knowledge ./internal/optimize ./internal/topology ./internal/config ./internal/pool ./internal/dataplane ./internal/node .
pins:
	$(GO) test -run 'Allocs|Footprint' $(PINS_PKGS)

fmt:
	gofmt -w .

# lint mirrors CI's required lint job. staticcheck and govulncheck are
# not vendored; they run when installed (CI always installs them), so a
# clean `make lint` on a bare checkout still covers gofmt, vet and the
# docs links.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping (CI runs it)"; fi
	$(GO) run ./cmd/mdlinkcheck README.md ROADMAP.md CHANGES.md docs/*.md

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench runs the send-path benchmarks — sustained broadcast and pipelined
# forward through the lane scheduler every frame leaves by, control
# latency idle and under a saturated data lane (which fails with the
# fabric and scheduler counters instead of hanging when a control frame
# never arrives), plus the steady-state heartbeat/forward datapath numbers
# they sit next to; the forwarder fan-out lives with its layer in
# internal/node — and writes the machine-readable results to
# BENCH_broadcast.json so perf regressions are diffable across PRs. CI
# regenerates and uploads the same file.
BENCH_PATTERN = BenchmarkBroadcastSustained|BenchmarkForwardPipelined|BenchmarkControlLatencyUnderLoad|BenchmarkBroadcast$$|BenchmarkHeartbeatSteadyState|BenchmarkForwardFanout
bench:
	@$(GO) test -bench='$(BENCH_PATTERN)' -benchtime=2000x -run='^$$' . ./internal/node > bench-broadcast.txt; \
		status=$$?; cat bench-broadcast.txt; \
		if [ $$status -ne 0 ]; then rm -f bench-broadcast.txt; exit $$status; fi
	$(GO) run ./cmd/benchjson -o BENCH_broadcast.json < bench-broadcast.txt
	@rm -f bench-broadcast.txt
	@echo "wrote BENCH_broadcast.json"

# scenarios runs the adversarial scenario matrix at full period budgets
# and rewrites the committed SCENARIOS.json (deterministic scenarios
# reproduce it bit-for-bit at the default seed). CI runs the same
# binary with -short budgets and uploads its report as an artifact.
scenarios:
	$(GO) run ./cmd/scenariomatrix -o SCENARIOS.json
