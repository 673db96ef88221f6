# Stellaris-Go build/test entry points. CI (.github/workflows/ci.yml)
# runs exactly these targets so local dev and the gate are identical.

GO ?= go
COVERPROFILE ?= coverage.out
BENCHTIME ?= 100ms
BENCHPKGS ?= . ./internal/nn ./internal/tensor ./internal/cache
FUZZTIME ?= 5s

.PHONY: build test race cover fmt vet lint leaktest bench bench-compare fuzz-short chaos trace-smoke obsd-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the fast test set; the chaos/CNN long runners
# are gated behind testing.Short().
race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -coverprofile=$(COVERPROFILE) -covermode=atomic ./...
	$(GO) tool cover -func=$(COVERPROFILE) | tail -1

# Fails (non-zero exit + file list) if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific invariant analyzer (stdlib-only, see DESIGN.md
# "Invariants"): wall-clock reads in DES packages, mixed atomic/plain
# field access, blocking calls under a mutex (lexically and across call
# chains), lock-order deadlock cycles, leaked goroutines, global
# math/rand, silently dropped cache errors, and stale //lint:allow
# directives. Exits non-zero on any finding; the -budget flag fails the
# run if module analysis outgrows its CI time box.
lint:
	$(GO) run ./cmd/stellaris-lint -budget 120s ./...

# Runtime goroutine-leak sanitizer pass: the suites wired with
# leaktest.Check (cache client/server/replica/sharded, live train and
# recovery, obs HTTP) run race-enabled and WITHOUT -short, so every
# Close/Stop path is exercised and any goroutine outliving its test
# fails the build. This is the dynamic complement of the static
# goroleak check above.
leaktest:
	$(GO) test -race -count=1 ./internal/leaktest ./internal/cache ./internal/live ./internal/obs

# Heavy chaos drills under the race detector, WITHOUT -short: fault
# proxy at aggressive rates, AOF compaction under concurrent load, the
# learner-panic + server-bounce drill (see DESIGN.md "Crash
# recovery"), and the cluster drills (DESIGN.md §11): shard-kill
# failover, the asymmetric-partition drill (deposed leader fenced by
# term, §11.5) and the brownout drill (gray failure detected and
# evacuated, §11.6). The suite is selected by NAME, not a hand-maintained
# regexp: every testing.Short()-gated drill in these packages must be
# called TestChaos* — stellaris-lint's chaosname check enforces it, so
# a new drill cannot silently miss this target. The fast
# recovery/resume tests run in `make race` already.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' \
		./internal/live ./internal/cache ./internal/ckpt

# Causal-tracing smoke: short lockstep + DES runs must reconstruct at
# least one fully linked trajectory→gradient→aggregation chain and
# export schema-valid Chrome trace JSON (see DESIGN.md "Causal tracing
# & flight recorder").
trace-smoke:
	$(GO) test -race -count=1 -run 'TraceSmoke|TraceDES' ./internal/live ./internal/core

# Fleet telemetry smoke (DESIGN.md §12): the stellaris-obsd daemon
# end-to-end against a live cache server (discovery → scrape → dash),
# the collector's DES virtual-clock suite, the frozen-fixture tolerant
# decode, and the heartbeat lifecycle tests — race-enabled and
# leaktest-checked. The full-cluster fleet drill
# (TestChaosFleetTelemetry) rides in `make chaos` via the TestChaos*
# naming convention.
obsd-smoke:
	$(GO) test -race -count=1 -run 'TestObsd|TestParseFlags|TestDefaultRules|TestSim|TestHeartbeat|TestReadInstances|TestTolerantDecode' \
		./cmd/stellaris-obsd ./internal/obs/fleet ./internal/cache

# Short live fuzz of the cache wire codec and framing. The checked-in
# corpus under internal/cache/testdata/fuzz replays on every plain
# `go test`; this target additionally explores new inputs for
# FUZZTIME per fuzz target (go's -fuzz accepts one target at a time).
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzBinCodecRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/cache

# Quick benchmark sweep over the hot-path packages. BENCH_live.txt is
# benchstat-compatible; BENCH_live.json is the same results as JSON (via
# cmd/bench2json). Raise BENCHTIME for stabler numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) $(BENCHPKGS) | tee BENCH_live.txt
	$(GO) run ./cmd/bench2json -o BENCH_live.json < BENCH_live.txt

# Allocation-regression gate: rerun the sweep into BENCH_new.json (the
# committed BENCH_live.json baseline is never overwritten) and fail if
# any benchmark's B/op or allocs/op grew more than MAX_REGRESS vs the
# baseline. ns/op deltas are printed but informational — CI wall time
# is too noisy to gate on.
MAX_REGRESS ?= 20%
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) $(BENCHPKGS) | tee BENCH_new.txt
	$(GO) run ./cmd/bench2json -o BENCH_new.json < BENCH_new.txt
	$(GO) run ./cmd/bench2json -compare BENCH_live.json BENCH_new.json -max-regress $(MAX_REGRESS)

ci: build fmt vet lint race leaktest cover
