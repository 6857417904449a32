#!/usr/bin/env bash
# Tier-1 verify: configure, build (release: fail on any compiler warning
# the build prints), run the full test suite, then smoke the hot paths —
#   * bench_serve_traffic exits non-zero if job outputs are not
#     bit-identical across scheduling policies and tier transports (the
#     loopback/socket smokes below); (release only) the --gpus-per-job 2
#     smoke holds the same gate on two-device sessions,
#   * bench_stage_scaling exits non-zero if any pool width resolves
#     different memo outcomes than the serial run, and emits the BENCH_*.json
#     perf-trajectory point,
#   * a trace-enabled serve replay (--trace over the loopback transport)
#     must produce a non-empty, parseable Chrome-trace JSON while staying
#     in the bench's own output-identity gate (trace on/off bit-identity),
#   * the preemption smoke (--preempt --jobs 32) replays the FIFO point
#     with stage-boundary preemption on and exits non-zero unless the
#     preempted outputs are bit-identical to the uninterrupted baseline
#     AND at least one job actually yielded,
#   * (release only) bench_table1_accuracy exits non-zero when memoized
#     reconstruction accuracy (paper Eq. 5) drops below its calibrated
#     Table 1 bounds.
# The serving layer alone (service/scheduler matrices, workload contracts,
# tier wire protocol) can be run via its CTest label: `ctest -L serve`;
# `ctest -L unit` runs every suite but serve_test's matrices (label
# `matrix`) in seconds.
# The TSan preset additionally re-runs the fork-join team's own tests
# (ParallelFor*: four callers sharing one team's rounds, whose chunk claims
# and completion counts are polled atomics; a one-thread team; a throwing
# round), the batch-key test (a stage's keys fanned out by chunk and
# channel block at pool widths 1-4 must equal the single-chunk keys), the
# engine's golden digests and cross-stage determinism matrix (threads x
# gpus x cache kind x oracle), the
# trace-on/off identity matrix (recorder rings hammered from pool threads),
# the lazy-key test (pool workers encode only their cache misses, skipping
# the encoder mid-pass), the pooled-training tests (the golden encoder
# trained at pool widths 1-4, and two threads training two encoders on one
# shared pool: workers write disjoint gradient and weight ranges while
# reading shared weights), the shared-norm test (four racing solves fill one
# Operators' ||L*L|| slot under its mutex and read it back), the memo DB
# suite and the remote-harvest test (pool workers storing fetched payloads
# into one entry's row under its kind's mutex while other workers read it),
# the obs unit suite, the fused elementwise-kernel suite (tiled reductions
# racing on the shared partial buffer is exactly where a combine-order bug
# would hide), the serve shard matrix (shards x policies x threads), the
# multi-device session tests (two- and three-device sessions run their
# memo layer on the shared service pool), the
# remote-tier loopback matrix (same workload rehosted on the wire
# protocol), the TierClient suite (a remote-seeded stage harvesting its
# GET_BATCH replies from pool workers), the transport fault-injection suite
# (reply-reader threads + the in-flight request table are exactly where a
# completion race would hide) and the reconnect/degradation suites
# (LoopbackReconnect.* + ReconServiceFaults.* — recovery ladder vs the
# reply reader, replay vs racing senders) explicitly before the smokes.
# Every preset also runs the chaos smoke: a TCP tier killed mid-run and
# restarted from a snapshot, gated on "surviving jobs bit-identical,
# service exits 0" (release and ASan add the blip flavour). Socket smokes skip gracefully where sockets are
# unavailable.
# The ASan+UBSan preset runs the whole test suite (hand-indexed kernels
# over scratch buffers, the wire decoder under hostile frames, the leaked
# trace rings, checkpoint/resume images) plus the fault smokes: the socket
# transport, the chaos kill and blip runs (the reconnect ladder and the
# reply-reader threads on a real socket) and the preemption smoke.
#   ./scripts/check.sh          release build + ctest + smokes
#   ./scripts/check.sh tsan     ThreadSanitizer build + ctest + matrix +
#                               smokes (slower)
#   ./scripts/check.sh asan     AddressSanitizer+UBSan build + ctest +
#                               socket, chaos and preempt smokes
set -euo pipefail
cd "$(dirname "$0")/.."

# Trace smoke: $1 = trace file written by a --trace run. Non-empty and (when
# python3 exists) parseable JSON with a non-empty traceEvents array.
check_trace() {
  local trace="$1"
  [[ -s "$trace" ]] || { echo "trace smoke: $trace empty or missing"; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
ev = t["traceEvents"]
assert len(ev) > 0, "traceEvents empty"
print(f"trace smoke: {sys.argv[1]} OK ({len(ev)} events)")
EOF
  fi
}

preset="${1:-}"
if [[ "$preset" == "tsan" ]]; then
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan -j "$(nproc)"
  ./build-tsan/obs_test
  ./build-tsan/common_test --gtest_filter='ParallelFor*'
  ./build-tsan/concurrency_test \
    --gtest_filter='Concurrency.StageExecutorGoldenDigest:Concurrency.CrossStageDeterminismMatrix:Concurrency.StageExecutorDeterministic*:Concurrency.TraceOnOffBitIdentityMatrix:Concurrency.CacheHitNeverEncodes:Concurrency.ConcurrentQuantizedEncodesMatchSerial:Concurrency.ConcurrentOperatorChunksMatchSerial:Concurrency.ConcurrentTrainingMatchesSerial:Concurrency.MemoDbHarvestsOneRemoteEntryFromManyWorkers'
  ./build-tsan/memo_test --gtest_filter='MemoDb.*'
  ./build-tsan/encoder_test \
    --gtest_filter='CnnEncoder.GoldenTrainingAndKeys:CnnEncoder.BatchKeysMatchSingleKeys'
  ./build-tsan/admm_test \
    --gtest_filter='Solver.ConcurrentSolvesShareOneNormEstimate'
  ./build-tsan/ew_test --gtest_filter='Ew.*'
  ./build-tsan/serve_test \
    --gtest_filter='ReconService.SharedTierShardMatrix:ReconService.LoopbackTransportMatrix:ReconService.TraceOnOffBitIdentity:ReconService.PreemptionDeterminismMatrix:ReconService.PreemptedJobResumesOnDifferentSlot:ReconService.AdmissionDecisionInvarianceMatrix:ReconService.ClusterSessionsIdenticalAcrossPolicies:ReconService.ClusterSessionsGolden'
  ./build-tsan/workload_test
  ./build-tsan/net_test \
    --gtest_filter='RequestTable.*:TierClient.*:TierClientFaults.*:TierServerFaults.*:SocketTransport.*:LoopbackReconnect.*'
  ./build-tsan/serve_test --gtest_filter='ReconServiceFaults.*'
  ./build-tsan/bench_stage_scaling --n 12 --reps 2 --threads 2 \
    --json /tmp/BENCH_stage_scaling.tsan.json
  ./build-tsan/bench_serve_traffic --jobs 8 --n small
  ./build-tsan/bench_serve_traffic --preempt --jobs 32 --n small
  ./build-tsan/bench_serve_traffic --jobs 8 --n small --transport loopback \
    --trace /tmp/mlr_trace.tsan.json
  check_trace /tmp/mlr_trace.tsan.json
  ./build-tsan/bench_serve_traffic --jobs 8 --n small --transport socket
  ./build-tsan/bench_serve_traffic --jobs 8 --n small --transport socket \
    --chaos kill-tier-at-job=3
elif [[ "$preset" == "asan" ]]; then
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -j "$(nproc)"
  ./build-asan/bench_serve_traffic --jobs 8 --n small --transport socket
  ./build-asan/bench_serve_traffic --jobs 8 --n small --transport socket \
    --chaos kill-tier-at-job=3
  ./build-asan/bench_serve_traffic --jobs 8 --n small --transport socket \
    --chaos blip-tier-at-job=3
  ./build-asan/bench_serve_traffic --preempt --jobs 32 --n small
else
  cmake -B build -S .
  # Warning gate. The log holds this build's output only, so an incremental
  # build checks just the files it recompiled; a fresh build checks all.
  cmake --build build -j "$(nproc)" 2>&1 | tee build/build.log
  if grep -q "warning:" build/build.log; then
    echo "release build printed compiler warnings (build/build.log)"
    exit 1
  fi
  (cd build && ctest --output-on-failure -j "$(nproc)")
  ./build/bench_table1_accuracy --n 14
  ./build/bench_stage_scaling --n 12 --reps 2 --threads 2 \
    --json /tmp/BENCH_stage_scaling.smoke.json
  ./build/bench_serve_traffic --jobs 8 --n small \
    --json /tmp/BENCH_serve_traffic.smoke.json
  ./build/bench_serve_traffic --jobs 8 --n small --gpus-per-job 2
  ./build/bench_serve_traffic --preempt --jobs 32 --n small \
    --json /tmp/BENCH_serve_traffic.preempt.json
  ./build/bench_serve_traffic --jobs 8 --n small --transport loopback \
    --trace /tmp/mlr_trace.smoke.json \
    --json /tmp/BENCH_serve_traffic.loopback.json
  check_trace /tmp/mlr_trace.smoke.json
  ./build/bench_serve_traffic --jobs 8 --n small --transport socket \
    --json /tmp/BENCH_serve_traffic.socket.json
  ./build/bench_serve_traffic --jobs 8 --n small --transport socket \
    --chaos kill-tier-at-job=3 \
    --json /tmp/BENCH_serve_traffic.chaos.json
  ./build/bench_serve_traffic --jobs 8 --n small --transport socket \
    --chaos blip-tier-at-job=3
fi
