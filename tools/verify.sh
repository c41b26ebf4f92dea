#!/usr/bin/env bash
# Full correctness matrix for the repo, one line of output per stage:
#
#   default   RelWithDebInfo build + complete ctest suite (DAGT_CHECKS on)
#   analyze   dagt-analyze over the checkout — token rules, cross-TU passes
#             (lock order, pooled lifetime, GUARDED_BY) and docs-drift rows
#             (metric keys, spans, knobs, tiers, options, benches, what-if
#             commands, rule ids) — plus its fixture self-tests
#             (ctest -L analyze)
#   bench     bench_micro_ops smoke run + BENCH JSON validation (tier table)
#   fusion    bench_fusion smoke run — fused-vs-unfused bitwise parity of
#             the served forward (closed-form head mean and σ), >= 1.2x
#             b = 1 head speedup (disentangle -> distribution ->
#             predictive), <= 3 allocs/predict;
#             GNN cone fills bitwise equal fused vs unfused and to a full
#             sweep, with no program compiled after the first fill
#   asan      ASan/UBSan build, tensor + concurrency + parser-robustness
#             + what-if + serve suites
#   tsan      ThreadSanitizer build, concurrency stress suite
#   obs       ThreadSanitizer build, tracing-layer suite (dagt_obs_tests)
#   whatif    ThreadSanitizer build of the what-if suite + bench_whatif
#             smoke (short edit stream, parity + 5x refresh-speedup gate)
#
# Usage: tools/verify.sh [--fast]
#   --fast skips the sanitizer stages (default + analyze + bench + fusion
#   only).
#
# Each sanitizer preset gets its own build tree (build-asan/, build-tsan/) —
# the runtimes are mutually exclusive, and CMake enforces that (see
# DAGT_SANITIZE in the top-level CMakeLists.txt). Exits non-zero if any
# stage fails; stage logs land in build*/verify-<stage>.log.

set -u
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
FAILED=0

stage() {
  local name="$1" log="$2"
  shift 2
  local start rc
  start=$(date +%s)
  if "$@" >"$log" 2>&1; then
    rc=ok
  else
    rc=FAIL
    FAILED=1
  fi
  printf '%-8s %-4s %4ss  %s\n' "$name" "$rc" "$(($(date +%s) - start))" "$log"
}

run_default() {
  cmake -B build -S . &&
    cmake --build build -j "$JOBS" &&
    ctest --test-dir build --output-on-failure -j 2
}

# The analyze label covers both halves of dagt-analyze: analyze.repo (the
# binary over the checkout; any finding fails) and dagt_analyze_tests
# (seeded-violation/clean-twin fixtures per rule, the drift rows on a mini
# checkout, and the golden fact-extraction dump).
run_analyze() {
  ctest --test-dir build -L analyze --output-on-failure
}

# The what-if suite is here for the GNN memo's cone fills, which write
# recomputed rows into cloned level tensors at computed indices, and for
# the copy-on-write pin-feature blocks. The serve suite is here because a
# cold feature build reads the caller's netlist through a reference.
run_asan() {
  cmake -B build-asan -S . -DDAGT_SANITIZE="address;undefined" &&
    cmake --build build-asan -j "$JOBS" \
      --target dagt_tensor_tests dagt_concurrency_tests \
      dagt_robustness_tests dagt_whatif_tests dagt_serve_tests &&
    ./build-asan/tests/dagt_tensor_tests &&
    ./build-asan/tests/dagt_concurrency_tests &&
    ./build-asan/tests/dagt_robustness_tests &&
    ./build-asan/tests/dagt_whatif_tests &&
    ./build-asan/tests/dagt_serve_tests
}

run_tsan() {
  cmake -B build-tsan -S . -DDAGT_SANITIZE=thread &&
    cmake --build build-tsan -j "$JOBS" --target dagt_concurrency_tests &&
    ./build-tsan/tests/dagt_concurrency_tests
}

# Shares build-tsan with run_tsan: the tracing hot path (span emission vs
# collect/aggregate/setEnabled) is a concurrency surface, so the obs suite
# runs under ThreadSanitizer, not just the default build.
run_obs() {
  cmake -B build-tsan -S . -DDAGT_SANITIZE=thread &&
    cmake --build build-tsan -j "$JOBS" --target dagt_obs_tests &&
    ./build-tsan/tests/dagt_obs_tests
}

# What-if service: the session/cone suite runs under ThreadSanitizer (the
# reader/writer stress is the point), then a short bench_whatif stream
# checks the incremental path end-to-end on the default tree — bitwise
# prediction parity with a cold rebuild after every edit, and a median
# incremental-vs-full-refresh speedup of at least 5x (the full bench's
# default gate is 10x; the smoke stream is short, so the gate is looser).
run_whatif() {
  cmake -B build-tsan -S . -DDAGT_SANITIZE=thread &&
    cmake --build build-tsan -j "$JOBS" --target dagt_whatif_tests &&
    ./build-tsan/tests/dagt_whatif_tests &&
    cmake --build build -j "$JOBS" --target bench_whatif &&
    rm -rf build/whatif-smoke && mkdir -p build/whatif-smoke &&
    DAGT_BENCH_DIR=build/whatif-smoke \
      DAGT_WHATIF_EDITS=8 DAGT_WHATIF_MIN_SPEEDUP=5 \
      ./build/bench/bench_whatif
}

# Smoke-run the perf dashboard at tiny shapes, then validate the JSON it
# writes: the kernel tier table must be present, every profiled tier must
# have a real timing, and on SIMD-capable hosts the dispatch layer must
# actually pay off (>= 2x GEMM speedup over the scalar tier).
run_bench() {
  cmake --build build -j "$JOBS" --target bench_micro_ops &&
    rm -rf build/bench-smoke && mkdir -p build/bench-smoke &&
    DAGT_BENCH_DIR=build/bench-smoke \
      ./build/bench/bench_micro_ops \
      --benchmark_filter='BM_KernelGemmTier/.*/64' \
      --benchmark_min_time=0.02 &&
    python3 - <<'EOF'
import json
doc = json.load(open("build/bench-smoke/BENCH_micro_ops.json"))
kernels = doc["kernels"]
tiers = kernels["tiers"]
assert "scalar" in tiers, "scalar tier missing from kernels profile"
assert kernels["active_tier"] in tiers, "active tier not profiled"
for name, tier in tiers.items():
    assert tier["gemm256_seconds"] > 0, f"non-positive timing for {name}"
if len(tiers) > 1:
    speedup = kernels["best_gemm_speedup_vs_scalar"]
    assert speedup >= 2.0, f"SIMD GEMM speedup {speedup:.2f}x < 2x"
print(f"bench-smoke: ok ({', '.join(sorted(tiers))})")
EOF
}

# Expression-fusion smoke: run bench_fusion at reduced shapes with the
# gates slightly looser than the recorded numbers (the bench's own defaults
# are 1.3x / 3 allocs; the smoke gate leaves margin for noisy CI boxes),
# then validate the JSON it writes: parity must be bitwise at the scalar
# tier AND the active tier, and the compiled programs must actually have
# replaced graph launches with fused kernels (the predictive head's two
# row sums lower to row dots). The GNN cone fill must match
# the unfused fill and a full sweep of the perturbed features bitwise at
# both tiers, and compile nothing after its first fill.
run_fusion() {
  cmake --build build -j "$JOBS" --target bench_fusion &&
    rm -rf build/fusion-smoke && mkdir -p build/fusion-smoke &&
    DAGT_BENCH_DIR=build/fusion-smoke \
      DAGT_FUSION_MIN_SPEEDUP=1.2 DAGT_FUSION_MAX_ALLOCS=3 \
      ./build/bench/bench_fusion &&
    python3 - <<'EOF'
import json
doc = json.load(open("build/fusion-smoke/BENCH_fusion.json"))
assert doc["parity_bitwise_scalar"], "fused != unfused at scalar tier"
assert doc["parity_bitwise_active_tier"], "fused != unfused at active tier"
assert doc["speedup"] >= 1.2, f"fusion speedup {doc['speedup']:.2f}x < 1.2x"
assert doc["fused_allocs_per_predict"] <= 3, (
    f"{doc['fused_allocs_per_predict']:.1f} pooled allocs/predict > 3")
assert doc["fused_gemm_launches"] > 0, "no fused GEMM launches recorded"
assert doc["fused_ew_launches"] > 0, "no fused elementwise launches recorded"
assert doc["fused_dot_launches"] > 0, "no fused row-dot launches recorded"
for tier in ("scalar", "active_tier"):
    assert doc[f"cone_parity_bitwise_{tier}"], (
        f"fused cone fill != unfused ({tier})")
    assert doc[f"cone_equals_sweep_{tier}"], (
        f"cone fill != full sweep ({tier})")
assert doc["cone_programs_compiled_after_first_fill"] == 0, (
    f"{doc['cone_programs_compiled_after_first_fill']} programs compiled "
    "after the first cone fill")
print(f"fusion-smoke: ok (b=1 head {doc['speedup']:.2f}x, b={doc['batch']} "
      f"head {doc['fused_serve_head_us_per_forward']:.0f} us, "
      f"{doc['fused_allocs_per_predict']:.1f} allocs/predict, cone fill "
      f"{doc['unfused_cone_fill_us']:.0f} -> "
      f"{doc['fused_cone_fill_us']:.0f} us)")
EOF
}

mkdir -p build
stage default build/verify-default.log run_default
stage analyze build/verify-analyze.log run_analyze
stage bench build/verify-bench.log run_bench
stage fusion build/verify-fusion.log run_fusion
if [[ "$FAST" == 0 ]]; then
  mkdir -p build-asan build-tsan
  stage asan build-asan/verify-asan.log run_asan
  stage tsan build-tsan/verify-tsan.log run_tsan
  stage obs build-tsan/verify-obs.log run_obs
  stage whatif build-tsan/verify-whatif.log run_whatif
fi

if [[ "$FAILED" != 0 ]]; then
  echo "verify: FAILED (see logs above)"
  exit 1
fi
echo "verify: all stages passed"
