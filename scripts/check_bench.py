#!/usr/bin/env python3
"""Perf-regression guard over the committed BENCH_*.json artifacts.

Re-recording a bench on a slower host changes every absolute wall-clock
number, so this guard checks only the properties every host must uphold:

* every artifact names its host and build: hardware_concurrency and
  build_type, so a number is never read without the machine and the
  optimisation level that produced it;
* correctness flags that the deterministic kernels promise unconditionally
  must be true: BENCH_train.json simd_vs_scalar_bitwise_identical,
  BENCH_serve.json bitwise_match, BENCH_http.json scores_bitwise_equal,
  BENCH_jobs.json graph_matches_barrier_output, BENCH_trace.json
  frozen_forward_alloc_free, and the BENCH_swap.json swap flags;
* the SIMD GEMM contract (DESIGN.md §9): BENCH_train.json must record
  which kernel actually ran each mode (gemm_kernel, dispatch resolved —
  never the literal "auto") and the host-wide ISA resolution (simd_isa),
  and where that ISA is not "scalar" the SIMD kernel must not lose to the
  scalar reference it is measured against on the same host
  (simd_vs_scalar_speedup >= 1.0);
* BENCH_jobs.json overlap_speedup >= 1.0: the job graph must never lose
  to the stage-barrier schedule it is measured against on the same host
  and the same executor (one Run of a flat graph per stage; the median
  ratio over interleaved pairs, so a noisy stretch of a shared host cannot
  decide it);
* HTTP and swap invariants: ordered latency percentiles, a bounded shed
  rate, zero failed requests during a swap, a bounded tail inflation, and
  at least one injected fault;
* observability invariants (BENCH_trace.json): disabled-tracing span
  overhead stays within a relaxed-atomic-load budget, and every
  instrumented stage recorded at least one span.

Epoch-scaling ratios (BENCH_parallel.json) are deliberately not gated: on
a single-core host (single_core_host: true) they legitimately hover at 1.0x
or below. Speed from one commit to the next is measured by the repo
benchmark (BENCHMARK.json), not here.

Run directly (`python3 scripts/check_bench.py --repo-root .`) or via ctest,
where it is registered under the `perf` label.
"""

import argparse
import json
import pathlib
import sys


def fail(errors, artifact, message):
    errors.append(f"{artifact}: {message}")


def require_flag(errors, artifact, data, key):
    if key not in data:
        fail(errors, artifact, f"missing required flag {key!r}")
    elif data[key] is not True:
        fail(errors, artifact, f"{key} is {data[key]!r}, expected true")


def require_speedup(errors, artifact, data, key, floor=1.0):
    if key not in data:
        fail(errors, artifact, f"missing required field {key!r}")
        return
    value = data[key]
    if not isinstance(value, (int, float)) or value < floor:
        fail(errors, artifact, f"{key} = {value!r}, expected >= {floor}")


def check_artifact(errors, path, checker):
    if not path.exists():
        fail(errors, path.name, "artifact missing")
        return
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        fail(errors, path.name, f"unparseable JSON: {error}")
        return
    count = data.get("hardware_concurrency")
    if not isinstance(count, int) or count < 1:
        fail(errors, path.name, "missing positive integer "
             "'hardware_concurrency'")
    build_type = data.get("build_type")
    if not isinstance(build_type, str) or not build_type:
        fail(errors, path.name, "missing non-empty string 'build_type'")
    checker(errors, path.name, data)


def check_parallel(errors, name, data):
    # Thread-scaling ratios are informational (see the module docstring);
    # only the host fields checked for every artifact are required.
    pass


def check_train(errors, name, data):
    require_flag(errors, name, data, "simd_vs_scalar_bitwise_identical")
    # gemm_kernel maps each bench mode to the kernel that actually ran it —
    # the dispatch resolution ("avx2"/"sse2"/"neon"/"scalar"), never the
    # literal "auto". simd_isa records the host-wide resolution.
    kernels = data.get("gemm_kernel")
    if (not isinstance(kernels, dict) or not kernels
            or not all(isinstance(v, str) and v and v != "auto"
                       for v in kernels.values())):
        fail(errors, name, "gemm_kernel must map each bench mode to a "
             "non-empty resolved kernel name (never 'auto')")
    isa = data.get("simd_isa")
    if not isinstance(isa, str) or not isa:
        fail(errors, name, "missing non-empty string field 'simd_isa'")
    elif isa != "scalar":
        # GEMM time of the dispatched kernel against the scalar reference on
        # the identical single-thread workload. On a host without a SIMD ISA
        # both rows run the scalar kernel and the ratio is noise around 1.0,
        # so it is gated only where a SIMD kernel actually ran.
        require_speedup(errors, name, data, "simd_vs_scalar_speedup")


def check_serve(errors, name, data):
    require_flag(errors, name, data, "bitwise_match")


def check_http(errors, name, data):
    # The transport must never change a bit of the score.
    require_flag(errors, name, data, "scores_bitwise_equal")
    # The invariant block every host must uphold regardless of speed:
    # ordered latency percentiles, a bounded shed rate, and positive
    # throughput. Absolute numbers are host-dependent and not gated.
    for field in ("p50_ms", "p99_ms", "p999_ms", "throughput_rps",
                  "shed_rate", "knee_qps", "single_core_host"):
        if field not in data:
            fail(errors, name, f"missing required field {field!r}")
    if all(k in data for k in ("p50_ms", "p99_ms", "p999_ms")):
        if not data["p50_ms"] <= data["p99_ms"] <= data["p999_ms"]:
            fail(errors, name,
                 f"latency percentiles out of order: p50={data['p50_ms']} "
                 f"p99={data['p99_ms']} p999={data['p999_ms']}")
    if "shed_rate" in data and not 0.0 <= data["shed_rate"] <= 1.0:
        fail(errors, name, f"shed_rate = {data['shed_rate']!r}, "
             "expected within [0, 1]")
    if "throughput_rps" in data and not data["throughput_rps"] > 0:
        fail(errors, name,
             f"throughput_rps = {data['throughput_rps']!r}, expected > 0")


def check_trace(errors, name, data):
    # The two observability invariants DESIGN.md §12 promises on every host:
    # the disabled-tracing fast path stays a handful of nanoseconds (one
    # relaxed atomic load), and the warm frozen forward performs zero tensor
    # allocations. Enabled-path cost and stage wall times are informational.
    require_flag(errors, name, data, "frozen_forward_alloc_free")
    overhead = data.get("trace_disabled_overhead_ns")
    if not isinstance(overhead, (int, float)):
        fail(errors, name, "missing numeric trace_disabled_overhead_ns")
    elif overhead > 250.0:
        fail(errors, name,
             f"trace_disabled_overhead_ns = {overhead}, expected <= 250 "
             "(disabled spans must stay a single relaxed atomic load)")
    if data.get("spans_dropped") != 0:
        fail(errors, name,
             f"spans_dropped = {data.get('spans_dropped')!r}, expected 0 "
             "(the bench run must fit the per-thread rings)")
    for field in ("trace_enabled_overhead_ns", "ring_capacity_events",
                  "single_core_host", "tensor_peak_bytes"):
        if field not in data:
            fail(errors, name, f"missing required field {field!r}")
    stages = data.get("stage_wall_ms")
    if not isinstance(stages, dict):
        fail(errors, name, "missing stage_wall_ms object")
        return
    for stage in ("dataset.build", "train.epoch", "train.forward",
                  "train.backward", "train.optimizer_step", "frozen.forward",
                  "gemm.block", "serve.batch_execute"):
        entry = stages.get(stage)
        if not isinstance(entry, dict) or entry.get("count", 0) < 1:
            fail(errors, name,
                 f"stage_wall_ms[{stage!r}] missing or has zero spans")


def check_jobs(errors, name, data):
    # The job-graph executor's contract (DESIGN.md §14) on every host: the
    # graph schedule of the staged pipeline must produce the barrier
    # schedule's exact bytes, and the overlap headline compares the two
    # schedules on the same host at pool size 2 — the graph removes
    # per-stage barriers, so it must never lose to the barrier schedule
    # (that holds even on a single-core host, where the gain is the removed
    # synchronisation). Training determinism is pinned by the goldens in
    # tests/pipeline_test.cc, not here.
    require_flag(errors, name, data, "graph_matches_barrier_output")
    require_speedup(errors, name, data, "overlap_speedup")
    rate = data.get("steady_state_jobs_per_sec")
    if not isinstance(rate, (int, float)) or rate <= 0:
        fail(errors, name,
             f"steady_state_jobs_per_sec = {rate!r}, expected > 0")
    if "single_core_host" not in data:
        fail(errors, name, "missing required field 'single_core_host'")


def check_swap(errors, name, data):
    # The hot-swap story (DESIGN.md §13) must hold on every host: the swap
    # publishes under live load without failing a single request, every score
    # stays bitwise-consistent with the snapshot fingerprint its response
    # carries, the health gate refuses corrupted and impostor candidates, and
    # the chaos campaign drives the probation watchdog into a rollback.
    require_flag(errors, name, data, "swap_published")
    require_flag(errors, name, data, "scores_bitwise_consistent")
    require_flag(errors, name, data, "corrupt_swap_rejected")
    require_flag(errors, name, data, "golden_swap_rejected")
    require_flag(errors, name, data, "rollback_observed")
    if data.get("requests_failed_during_swap") != 0:
        fail(errors, name,
             f"requests_failed_during_swap = "
             f"{data.get('requests_failed_during_swap')!r}, expected 0 "
             "(a hot swap must be zero-downtime)")
    for field in ("swap_latency_ms", "rollback_latency_ms", "p99_steady_ms",
                  "p99_swap_ms", "chaos_schedule", "chaos_fired",
                  "single_core_host"):
        if field not in data:
            fail(errors, name, f"missing required field {field!r}")
    inflation = data.get("p99_inflation")
    if not isinstance(inflation, (int, float)) or inflation <= 0:
        fail(errors, name, "missing positive p99_inflation")
    elif inflation > 25.0:
        # Generous across hosts; a swap must perturb the tail, not melt it.
        fail(errors, name,
             f"p99_inflation = {inflation}, expected <= 25 "
             "(the swap run's tail must stay the same order of magnitude)")
    if data.get("chaos_fired", 0) < 1:
        fail(errors, name,
             f"chaos_fired = {data.get('chaos_fired')!r}, expected >= 1 "
             "(the campaign must actually inject faults)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo-root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="directory holding the BENCH_*.json artifacts",
    )
    args = parser.parse_args()

    errors = []
    check_artifact(errors, args.repo_root / "BENCH_train.json", check_train)
    check_artifact(errors, args.repo_root / "BENCH_serve.json", check_serve)
    check_artifact(errors, args.repo_root / "BENCH_http.json", check_http)
    check_artifact(errors, args.repo_root / "BENCH_trace.json", check_trace)
    check_artifact(errors, args.repo_root / "BENCH_swap.json", check_swap)
    check_artifact(errors, args.repo_root / "BENCH_jobs.json", check_jobs)
    check_artifact(errors, args.repo_root / "BENCH_parallel.json",
                   check_parallel)

    if errors:
        for error in errors:
            print(f"check_bench: FAIL {error}", file=sys.stderr)
        return 1
    print("check_bench: all bench artifacts pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
