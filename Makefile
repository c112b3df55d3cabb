# Developer entry points. Everything here is plain `go` — the Makefile
# only names the invocations CI and the docs refer to.

GO ?= go

# Benchmarks included in the machine-readable summary: the campaign-tier
# perf benchmarks (snapshot/convergence/liveness) plus the VM golden-run
# tiers. Override BENCH to widen or narrow the sweep.
BENCH ?= BenchmarkCampaign(Snapshot|DisableSnapshots|DisableConverge|Liveness)$$|BenchmarkVMGoldenRun
BENCHTIME ?= 20x
BENCH_OUT ?= BENCH_10.json

.PHONY: build test vet bench bench-summary

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The full human-readable benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable benchmark summary: run the perf-tier benchmarks and
# condense them to JSON via cmd/benchsummary. $(BENCH_OUT) is committed
# as the reference numbers for this tree; CI regenerates it on every
# push and uploads the fresh copy as an artifact.
bench-summary:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchsummary -o $(BENCH_OUT)
