#!/usr/bin/env bash
# Hot-path benchmark harness: runs the sim-core, trace-generator,
# controller, cache-model, soft-max training and dataset-build
# benchmarks, prints a before/after table against the recorded baseline
# (scripts/bench_baseline.txt) and writes the machine-readable
# comparison to BENCH_sim.json. See README "Performance".
#
#   scripts/bench.sh                  # ~1 min
#   BENCHTIME=2s scripts/bench.sh     # longer, steadier runs
#   OUT=/tmp/b.json scripts/bench.sh  # alternate JSON path
#
# The recorded baseline is machine-specific (see the header of
# bench_baseline.txt); on other hardware read the ratios, not the
# absolute numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
out="${OUT:-BENCH_sim.json}"
raw=$(mktemp /tmp/bench-raw.XXXXXX.txt)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench, sim core (benchtime $benchtime) =="
# SimRun reuses one simulator across iterations; SimFresh pays the
# per-simulation cost the build pays (RunOnce on a new or recycled
# simulator, 8000 warmup + 8000 measured instructions).
go test -run XXX -bench 'BenchmarkSimRun|BenchmarkSimRunCollect|BenchmarkSimFresh' \
    -benchmem -benchtime "$benchtime" ./internal/cpu | tee "$raw"

echo "== go test -bench, instruction supply and runtime controller (benchtime $benchtime) =="
# GeneratorNext times trace generation over the held-out programs'
# phases; ControllerRun a generator-fed core.Controller.Run (read-ahead
# supply, phase detection, profiling, interval simulations). Both report
# ns/inst and have no recorded baseline row yet.
go test -run XXX -bench 'BenchmarkGeneratorNext' \
    -benchmem -benchtime "$benchtime" ./internal/trace | tee -a "$raw"
go test -run XXX -bench 'BenchmarkControllerRun' \
    -benchmem -benchtime "$benchtime" ./internal/core | tee -a "$raw"

echo "== go test -bench, cache model (benchtime $benchtime) =="
go test -run XXX -bench 'BenchmarkCacheAccess|BenchmarkHierarchyAccess|BenchmarkProfilerObserve' \
    -benchmem -benchtime "$benchtime" ./internal/cache | tee -a "$raw"

echo "== go test -bench, soft-max training (benchtime $benchtime) =="
# One pipeline-shaped LOOCV fold: the fourteen per-parameter trainings on
# D=437 phase-shaped examples, on one core.
go test -run XXX -bench 'BenchmarkTrainFold' \
    -benchmem -benchtime "$benchtime" ./internal/softmax | tee -a "$raw"

echo "== go test -bench, dataset build on a fresh store (6 builds) =="
# End-to-end test-scale dataset build against a cold store: every
# simulation runs and every result is appended to the store. The build
# fans its simulations out on every core, so this row compares only
# between runs at the same GOMAXPROCS.
go test -run XXX -bench 'BenchmarkDatasetBuildCold' \
    -benchtime 6x ./internal/experiment | tee -a "$raw"

echo
echo "== vs recorded pre-overhaul baseline =="
go run ./scripts/benchdiff scripts/bench_baseline.txt "$raw"
go run ./scripts/benchdiff -json scripts/bench_baseline.txt "$raw" >"$out"
echo
echo "wrote $out"
