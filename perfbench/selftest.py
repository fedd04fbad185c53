#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.  Needs no build; takes seconds.

    python3 perfbench/selftest.py

Shows that a perturbed pin, a sharded result that differs from the single
engine, and a nondeterministic repetition are each counted as a failed
repetition; that bad command lines exit 2; and that BENCHMARK.json lists
exactly the metrics of metrics.json.  Exits 0 when every check holds.
"""

import copy
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def fake_rep(outputs):
    return {"outputs": outputs, "timing": {"run_s": 1.0}}


def pinned_outputs(workload, seed, pins):
    """Outputs that satisfy the pins and every invariant."""
    out = dict(pins[run.pin_group(workload)][str(seed)])
    out.update({"retransmits": 0, "oncache_hits": 1})
    return out


def test_pins():
    pins = run.load_pins()
    for seed in (pins["default_seed"], pins["heldout_seed"]):
        for workload in run.WORKLOADS:
            outputs = pinned_outputs(workload, seed, pins)
            tally = run.Tally(workload, seed, copy.deepcopy(outputs))
            tally.check(fake_rep(outputs))
            expect(tally.failed == 0,
                   f"{workload} seed {seed}: pinned outputs pass")
            for key in pins[run.pin_group(workload)][str(seed)]:
                tally = run.Tally(workload, seed, copy.deepcopy(outputs))
                tally.pins = copy.deepcopy(pins)
                tally.pins[run.pin_group(workload)][str(seed)][key] += 1
                tally.check(fake_rep(outputs))
                expect(tally.attempted == 1 and tally.failed == 1,
                       f"{workload} seed {seed}: perturbed pin {key} fails")


def test_reference_and_determinism():
    pins = run.load_pins()
    seed = pins["heldout_seed"]
    outputs = pinned_outputs("macro_sharded", seed, pins)
    other = dict(outputs, rr_latency_ns_sum=1.0)
    tally = run.Tally("macro_sharded", seed, dict(outputs, rr_latency_ns_sum=2.0))
    tally.check(fake_rep(other))
    expect(tally.failed == 1, "macro_sharded differing from macro_churn fails")
    tally = run.Tally("macro_sharded", seed, None)
    tally.check(fake_rep(outputs))
    expect(tally.failed == 1, "macro_sharded without a reference fails")

    unpinned = {"stream_bytes": 5, "rr_transactions": 3, "events_total": 9,
                "retransmits": 0}
    tally = run.Tally("nat_stream", 7, None)
    tally.check(fake_rep(unpinned))
    tally.check(fake_rep(dict(unpinned, events_total=10)))
    expect(tally.attempted == 2 and tally.failed == 1,
           "a repetition differing from the first fails")
    e2e = run.end_to_end([fake_rep(unpinned) | {
        "timing": {"run_s": 1.0, "setup_s": 1.0, "cpu_s": 1.0},
        "peak_rss_mb": 1.0}], tally)
    expect(e2e["correct_share"] == 0.5, "correct_share is 1 - error_rate")


def test_cli():
    base = ["--workload", "nat_stream", "--seed", "42", "--seconds", "1",
            "--trace", "0"]

    def with_value(flag, value):
        argv = list(base)
        argv[argv.index(flag) + 1] = value
        return argv

    cases = {
        "malformed seed": with_value("--seed", "4x2"),
        "negative seed": with_value("--seed", "-1"),
        "unknown workload": with_value("--workload", "nat"),
        "zero seconds": with_value("--seconds", "0"),
        "bad trace": with_value("--trace", "2"),
        "stray argument": base + ["extra"],
        "missing seed": base[:2] + base[4:],
        "abbreviated flag": ["--work"] + base[1:],
    }
    for name, argv in cases.items():
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py")]
                              + argv, capture_output=True, text=True,
                              timeout=60)
        expect(proc.returncode == 2 and proc.stderr and not proc.stdout,
               f"run.py {name} exits 2 with a message")


def test_benchmark_json():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if not os.path.exists(path):
        print("skip BENCHMARK.json (not beside perfbench/)")
        return
    with open(path) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        spec = json.load(f)
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        want = [{k: m[k] for k in keys} for m in spec[kind]]
        expect(bench[kind] == want, f"BENCHMARK.json {kind} matches metrics.json")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
           == list(spec["workloads"]), "workload lists agree")


def main():
    test_pins()
    test_reference_and_determinism()
    test_cli()
    test_benchmark_json()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
