#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate, run locally and by the CI
# `lint` job.
#
# Layers, cheapest first:
#   1. gofmt       — formatting drift fails fast
#   2. go vet      — the full default check set (copylocks, atomic,
#                    loopclosure, printf, ... — everything a stock vet runs)
#   3. doclint     — package doc comments + guarded-by annotation validity
#   4. bmaclint    — the repo's own go/analysis-style suite enforcing the
#                    hot-path contracts: the per-package checks aliasguard
#                    (zero-copy decode vs wire buffer pool), nilsafe (nil
#                    instrument guards), guardedby (mutex discipline) and
#                    errdiscard (no silent error swallowing), plus the
#                    interprocedural module checks sharing one call graph:
#                    lockorder (cycle-free mutex acquisition order),
#                    goroleak (provable goroutine stop paths) and
#                    allocbound (bmaclint:noalloc functions stay
#                    allocation-free per the compiler's escape analysis)
#   5. benchmark/  — its own module (BENCHMARK.json's runner) compiled
#                    against bmac/internal/...; `./...` does not reach it,
#                    so vet and test it here to catch an internal API
#                    change that breaks it
set -euo pipefail
cd "$(dirname "$0")/.."

# Analyzer fixtures under testdata are deliberately written to trip the
# analyzers and carry // want expectation comments; they are not module
# code and are excluded from the formatting sweep.
echo "lint: gofmt"
out=$(gofmt -l . | grep -v 'internal/analysis/testdata/' || true)
if [ -n "$out" ]; then
  echo "lint: gofmt needed on:" >&2
  echo "$out" >&2
  exit 1
fi

echo "lint: go vet (full default check set: copylocks, atomic, loopclosure, ...)"
go vet ./...

echo "lint: doclint"
./scripts/doclint.sh

echo "lint: bmaclint"
go run ./cmd/bmaclint ./...

echo "lint: benchmark module (go vet + go test)"
(cd benchmark && go vet ./... && go test ./...)

echo "lint: clean"
