#!/usr/bin/env python3
"""Guard the deterministic benchmark metrics.

Every bench writes ``BENCH_<name>.json`` with a flat metric list.  All
simulated metrics are deterministic for a given seed (EXPERIMENTS.md:
"all runs are deterministic"), so CI can hold them to exact expected
values; only wall-clock readings (and allocator-version-dependent heap
counters) legitimately vary between runs and machines.

Modes:
  snapshot <bench_dir> -o expected.json
      Record the deterministic metrics of every BENCH_*.json in
      <bench_dir> as the expected baseline.
  check <bench_dir> --expected expected.json [--tolerance-pct P]
      Fail (exit 1) if any deterministic metric is missing or deviates
      from its expected value by more than P percent (default 0: exact,
      which is the EXPERIMENTS.md contract for seeded runs).
  diff <dir_a> <dir_b>
      Fail if the deterministic metrics of the two directories differ at
      all — used to prove ``--jobs N`` sweep output equals sequential.
  summarize <bench_dir> -o BENCH_summary.json
      Consolidate every BENCH_*.json (all metrics, wall-clock included,
      plus the execution shape: shards, worker threads, per-shard event
      counts) into one artifact for CI upload and cross-run comparison.
  trajectory <bench_dir>... --build-dir DIR --label TEXT [--append FILE]
      Print one JSON line of host throughput: every events_per_sec_wall*
      metric of abl_engine_perf and of the abl_macro_scale smoke run (the
      median over the given directories, one per repetition), with nproc
      and the build's compiler and build type.  --append adds the line to
      FILE (bench/perf_trajectory.jsonl keeps one per change).
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

# Metric names containing these substrings are not simulation outputs:
#   wall        - wall-clock timings (events_per_sec_wall, wall_seconds)
#   heap_allocs - counts real allocator traffic; deterministic on one
#                 machine but dependent on the C++ runtime's internal
#                 allocation behaviour, so not comparable across images
NONDETERMINISTIC_SUBSTRINGS = ("wall", "heap_allocs")


def is_deterministic(name: str) -> bool:
    return not any(s in name for s in NONDETERMINISTIC_SUBSTRINGS)


def load_dir(bench_dir: str, deterministic_only: bool = True) -> dict:
    """Returns {bench_name: {metric_name: value}}."""
    out = {}
    paths = sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json")))
    # The consolidated artifact lives beside the per-bench files; it is an
    # output of this script, never an input.
    paths = [p for p in paths
             if os.path.basename(p) != "BENCH_summary.json"]
    if not paths:
        sys.exit(f"error: no BENCH_*.json files in {bench_dir}")
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        out[doc["bench"]] = {
            m["name"]: m["value"]
            for m in doc["metrics"]
            if not deterministic_only or is_deterministic(m["name"])
        }
    return out


def load_execution(bench_dir: str) -> dict:
    """Returns {bench_name: {shards, worker_threads, per_shard_events,
    [epochs, fused_epochs, cross_posts, drained_posts, idle_windows,
    barrier_wait_ns]}}.

    Execution shape is reporting only (it varies with the host and the
    --shards flag) and is therefore folded into the summary artifact but
    never compared by check/diff.  Benches driving a ShardedConductor also
    emit a nested "execution" object with the conductor's epoch-loop
    counters (ShardedConductor::stats()); those keys are flattened in.
    Older BENCH files without the fields default to the single-engine
    shape.
    """
    out = {}
    paths = sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json")))
    paths = [p for p in paths
             if os.path.basename(p) != "BENCH_summary.json"]
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        entry = {
            "shards": doc.get("shards", 1),
            "worker_threads": doc.get("worker_threads", 1),
            "per_shard_events": doc.get("per_shard_events", []),
        }
        entry.update(doc.get("execution", {}))
        out[doc["bench"]] = entry
    return out


# Benches whose wall-clock throughput the perf trajectory records.
TRAJECTORY_BENCHES = ("abl_engine_perf", "abl_macro_scale")


def build_shape(build_dir: str) -> dict:
    """Compiler and build type of a CMake build tree."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = f.read()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    # An empty cache entry means the top-level CMakeLists default: Release.
    build_type = (m.group(1) if m else "") or "Release"
    compiler = "unknown"
    found = glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake"))
    if found:
        with open(sorted(found)[-1]) as f:
            text = f.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        compiler = " ".join(x.group(1) for x in (cid, ver) if x)
    return {"compiler": compiler, "build_type": build_type}


def trajectory_record(bench_dirs: list, build_dir: str, label: str) -> dict:
    record = {"label": label, "nproc": len(os.sched_getaffinity(0)),
              **build_shape(build_dir), "reps": len(bench_dirs)}
    samples = {}
    for bench_dir in bench_dirs:
        benches = load_dir(bench_dir, deterministic_only=False)
        for bench in TRAJECTORY_BENCHES:
            rates = {name: value
                     for name, value in benches.get(bench, {}).items()
                     if name.startswith("events_per_sec_wall")}
            if not rates:
                sys.exit(f"error: no events_per_sec_wall metric of {bench} "
                         f"in {bench_dir}")
            for name, value in rates.items():
                samples.setdefault(f"{bench}.{name}", []).append(value)
    for key in sorted(samples):
        record[key] = statistics.median(samples[key])
    return record


def compare(expected: dict, actual: dict, tolerance_pct: float,
            expected_label: str, actual_label: str) -> int:
    """Symmetric comparison: a bench or metric present on only one side
    is a failure in both directions.  A produced metric with no baseline
    means the baseline is stale (re-run snapshot); a baseline metric the
    bench no longer emits means the bench silently lost coverage."""
    failures = 0
    for bench, metrics in sorted(expected.items()):
        if bench not in actual:
            print(f"FAIL {bench}: present in {expected_label}, "
                  f"missing from {actual_label}")
            failures += 1
            continue
        for name, want in sorted(metrics.items()):
            if name not in actual[bench]:
                print(f"FAIL {bench}.{name}: metric missing from "
                      f"{actual_label}")
                failures += 1
                continue
            got = actual[bench][name]
            if want == got:
                continue
            dev = abs(got - want) / abs(want) * 100.0 if want else float("inf")
            if dev > tolerance_pct:
                print(f"FAIL {bench}.{name}: expected {want!r}, got {got!r} "
                      f"(deviation {dev:.4g}% > {tolerance_pct}%)")
                failures += 1
        for name in sorted(set(actual[bench]) - set(metrics)):
            print(f"FAIL {bench}.{name}: present in {actual_label} but not "
                  f"in {expected_label} (baseline stale? re-run snapshot)")
            failures += 1
    for bench in sorted(set(actual) - set(expected)):
        print(f"FAIL {bench}: present in {actual_label} but has no "
              f"baseline in {expected_label} (re-run snapshot to record it)")
        failures += 1
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)

    snap = sub.add_parser("snapshot")
    snap.add_argument("bench_dir")
    snap.add_argument("-o", "--output", required=True)

    chk = sub.add_parser("check")
    chk.add_argument("bench_dir")
    chk.add_argument("--expected", required=True)
    chk.add_argument("--tolerance-pct", type=float, default=0.0)
    chk.add_argument("--require-zero", action="append", default=[],
                     metavar="BENCH.METRIC",
                     help="fail unless this metric is present and exactly 0 "
                          "(e.g. abl_batching.batch1_equivalence_max_delta)")

    dif = sub.add_parser("diff")
    dif.add_argument("dir_a")
    dif.add_argument("dir_b")

    summ = sub.add_parser("summarize")
    summ.add_argument("bench_dir")
    summ.add_argument("-o", "--output", required=True)

    traj = sub.add_parser("trajectory")
    traj.add_argument("bench_dirs", nargs="+", metavar="bench_dir",
                      help="one directory of BENCH files per repetition")
    traj.add_argument("--build-dir", required=True,
                      help="CMake build tree the benches came from")
    traj.add_argument("--label", required=True,
                      help="what this record measures (e.g. the change)")
    traj.add_argument("--append", metavar="FILE",
                      help="append the record to FILE instead of stdout")

    args = ap.parse_args()

    if args.mode == "trajectory":
        line = json.dumps(trajectory_record(args.bench_dirs, args.build_dir,
                                            args.label))
        if args.append:
            with open(args.append, "a") as f:
                f.write(line + "\n")
        else:
            print(line)
        return 0

    if args.mode == "snapshot":
        snapshot = load_dir(args.bench_dir)
        with open(args.output, "w") as f:
            json.dump(snapshot, f, indent=2, sort_keys=True)
            f.write("\n")
        n = sum(len(m) for m in snapshot.values())
        print(f"recorded {n} deterministic metrics "
              f"from {len(snapshot)} benches -> {args.output}")
        return 0

    if args.mode == "check":
        with open(args.expected) as f:
            expected = json.load(f)
        actual = load_dir(args.bench_dir)
        failures = compare(expected, actual, args.tolerance_pct,
                           args.expected, args.bench_dir)
        for spec in args.require_zero:
            bench, _, metric = spec.partition(".")
            got = actual.get(bench, {}).get(metric)
            if got is None:
                print(f"FAIL {spec}: required-zero metric missing")
                failures += 1
            elif got != 0:
                print(f"FAIL {spec}: expected exactly 0, got {got!r}")
                failures += 1
        if failures:
            print(f"{failures} metric(s) deviate")
            return 1
        print("all deterministic metrics match the expected baseline")
        return 0

    if args.mode == "summarize":
        benches = load_dir(args.bench_dir, deterministic_only=False)
        execution = load_execution(args.bench_dir)
        summary = {
            "benches": benches,
            "execution": execution,
            "bench_count": len(benches),
            "metric_count": sum(len(m) for m in benches.values()),
        }
        with open(args.output, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"consolidated {summary['metric_count']} metrics from "
              f"{summary['bench_count']} benches -> {args.output}")
        return 0

    # diff: exact symmetric comparison.
    a = load_dir(args.dir_a)
    b = load_dir(args.dir_b)
    failures = compare(a, b, 0.0, args.dir_a, args.dir_b)
    if failures:
        print(f"{failures} difference(s) between {args.dir_a} and "
              f"{args.dir_b}")
        return 1
    print("deterministic metrics are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
