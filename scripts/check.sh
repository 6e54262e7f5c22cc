#!/bin/sh
# Pre-commit gate: everything must build, vet clean, and pass the test
# suite with the race detector on (the morsel executor and the
# observability layer run concurrently, so -race is not optional).
# GOMAXPROCS=8 forces real goroutine interleaving for the parallel
# executor paths even on small CI hosts.
set -eux
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
# Formatting gate: gofmt must produce no diffs.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on: $unformatted" >&2
    exit 1
fi
GOMAXPROCS=8 go test -race ./...
# Chaos sweep: fire every registered fault point and require graceful
# degradation (native-identical result or typed QueryError, no crash).
GOMAXPROCS=8 go test -race -count=1 -run 'Chaos|Fault|Breaker|Recover|Backoff|Interrupt|ProcessInvoker' ./...
# Diagnostics-plane smoke: real HTTP against the embedded server —
# /metrics must parse as Prometheus 0.0.4 with the required series,
# /debug/queries must show the flight recorder, and a recorded trace
# must round-trip as valid Chrome trace_event JSON.
go run ./cmd/qfusor-bench -obs-smoke
# VM-tier smoke: an E20 micro-run — the bytecode VM must engage on the
# dispatch-bound sections, beat the closure tier, keep bail_rows at
# zero, and expose its qfusor.vm.* counters in valid Prometheus form.
go run ./cmd/qfusor-bench -vm-smoke
# Query-server smoke: the serving plane over real HTTP — sessions and
# prepared statements work, an overload burst sheds with typed 429/503
# responses instead of collapsing, the admission counters show up in
# /metrics and /debug/sessions, and shutdown drains within its grace.
go run ./cmd/qfusor-bench -serve-smoke
# Inlined-tier smoke: a guarded straight-line UDF query pinned to the
# relational-inlining tier must come back native-identical with zero
# FFI crossings (the Froid contract), an opaque UDF must fall back, and
# the qfusor.inline.* counters must appear in valid Prometheus form.
go run ./cmd/qfusor-bench -inline-smoke
# Differential fuzz smoke: a bounded run of the native vs fused-cold vs
# fused-warm (plan-cache hit) equivalence fuzzer; any mismatch is a
# plan-cache or fusion correctness bug. FUZZTIME can be shortened for
# fast local iteration.
go test -run '^$' -fuzz FuzzDiff -fuzztime "${FUZZTIME:-30s}" ./internal/core
# JSON decoder fuzz smoke: the single-pass decoder against the
# encoding/json reference — same Kind and repr on valid input, an error
# from both on invalid input. The fuzzer minimizes every new input it
# finds, which on this cheap target can eat a short run whole, so
# minimization is capped.
go test -run '^$' -fuzz FuzzJSONDecode -fuzztime "${FUZZTIME:-10s}" -fuzzminimizetime 1s ./internal/data
