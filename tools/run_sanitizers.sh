#!/usr/bin/env bash
# Build and run the tier-1 test suite under AddressSanitizer + UBSan.
#
# The GF(2^8) SIMD kernels do unaligned vector loads and hand-rolled tail
# handling — exactly the code where out-of-bounds reads hide — so CI (or a
# developer, before touching src/gf) should run this script in addition to
# the plain test suite. The progressive decoder's differential fuzz
# (test_linalg: window growth and tightening, batched back-elimination)
# runs in this ASan/UBSan phase as part of the full suite.
#
#   tools/run_sanitizers.sh            # build into build-sanitize/ and test
#   BUILD_DIR=/tmp/san tools/run_sanitizers.sh
#   tools/run_sanitizers.sh -R test_gf # extra args are forwarded to ctest
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build-sanitize}"
jobs="$(nproc 2>/dev/null || echo 2)"

# -Werror here: the tree builds warning-free, and a new warning fails this
# run instead of scrolling past in a log.
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DPRLC_SANITIZE=address;undefined" \
  -DPRLC_WERROR=ON
cmake --build "${build_dir}" -j"${jobs}"

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"

ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}" "$@"
echo "sanitizer run OK (${build_dir})"

# Phase 2: ThreadSanitizer over the concurrent code: the obs metrics/trace
# layers (relaxed atomics + one mutex) and the trial runner's index loop
# (threads started for each run and joined before it returns, one atomic
# index counter, one mutex for the error slot). TSan runs just those
# suites plus a few multi-threaded bench smokes rather than paying the
# 5-20x slowdown across everything. TSan is incompatible with ASan, hence
# the separate build tree.
#
# The fault-injection suites (test_net fault model, test_proto channel +
# resilient collector) run under ASan/UBSan as part of the full ctest
# phase above; the abl_fault smoke below additionally exercises the
# fault channel + retry/hedge paths across worker threads under TSan.
tsan_build_dir="${TSAN_BUILD_DIR:-${repo_root}/build-tsan}"

cmake -B "${tsan_build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPRLC_SANITIZE=thread
cmake --build "${tsan_build_dir}" -j"${jobs}" \
  --target test_obs --target test_obs_noalloc --target test_runtime \
  --target test_codes --target test_proto --target test_sim \
  --target abl_persistence_e2e --target abl_fault --target abl_cluster_lifetime \
  --target abl_integrity

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
ctest --test-dir "${tsan_build_dir}" --output-on-failure -j"${jobs}" \
  -R '^test_obs$|^test_obs_noalloc$|^test_runtime$'
# The telemetry determinism tests run parallel trials that record into the
# journal's event and sample rings — the exact thread-local-handoff code
# TSan exists to vet.
"${tsan_build_dir}/tests/test_proto" \
  --gtest_filter='TelemetryDeterminism.*' > /dev/null
PRLC_BENCH_FAST=1 "${tsan_build_dir}/bench/abl_persistence_e2e" \
  --threads 4 --trials 64 \
  --events-jsonl "${tsan_build_dir}/persistence_events.jsonl" \
  --timeseries-jsonl "${tsan_build_dir}/persistence_ts.jsonl" > /dev/null
PRLC_BENCH_FAST=1 "${tsan_build_dir}/bench/abl_fault" \
  --threads 4 --trials 32 \
  --events-jsonl "${tsan_build_dir}/fault_events.jsonl" \
  --timeseries-jsonl "${tsan_build_dir}/fault_ts.jsonl" > /dev/null
# Dense and sparse-model decoding curves driven through the TrialRunner
# at 1/2/4/8 threads: each trial owns its decoder, so the only shared
# state is the runner's work distribution — exactly what TSan should vet.
"${tsan_build_dir}/tests/test_codes" \
  --gtest_filter='DecodingCurve.ThreadCountDoesNotChangeResults' > /dev/null
# Cluster-simulator lifetimes sharded across TrialRunner threads: each
# trial owns its event queue, membership bitmap and failure process, and
# the per-trial telemetry rings hand off to the global journal at merge
# time — the same handoff pattern as the telemetry suite, now under
# the simulator's much higher event volume.
"${tsan_build_dir}/tests/test_sim" \
  --gtest_filter='ClusterSim.ThreadCountNeverChangesResults' > /dev/null
PRLC_BENCH_FAST=1 "${tsan_build_dir}/bench/abl_cluster_lifetime" \
  --threads 8 \
  --json "${tsan_build_dir}/cluster.json" > /dev/null
# ChordNetwork lookups are const but fill the overlay's alive-ring and
# finger caches. Every trial owns its overlay, so trials on several
# threads must never touch one cache together: persistence (Chord) and
# fault (sensor and Chord) sweeps, serial against multi-threaded. The
# fault test also runs a silent sweep: fingerprint verification and
# quarantine inside the sharded collector trials. The scrubber/rot event
# machinery of the cluster simulator follows, at 8 threads; the
# parallel-vs-serial in-process gates run under ASan/UBSan above.
"${tsan_build_dir}/tests/test_proto" \
  --gtest_filter='Persistence.ThreadCountDoesNotChangeResults:FaultExperiment.ThreadCountNeverChangesResults' \
  > /dev/null
"${tsan_build_dir}/tests/test_sim" \
  --gtest_filter='ClusterSim.RotTrialsReplayBitIdenticallyAtAnyThreadCount' > /dev/null
PRLC_BENCH_FAST=1 "${tsan_build_dir}/bench/abl_integrity" \
  --threads 8 --seed 777 \
  --json "${tsan_build_dir}/integrity.json" \
  --events-jsonl "${tsan_build_dir}/integrity_events.jsonl" > /dev/null
echo "tsan run OK (${tsan_build_dir})"
