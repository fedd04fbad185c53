#!/usr/bin/env python3
"""Seeded benchmark of the nestv simulator.

    python3 perfbench/run.py --workload nat_stream --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout.  The first call builds perfbench/
(which compiles the repository's src/) into .bench_build/perfbench; later
calls only check that the build is current.

A run repeats one workload, each repetition in its own driver process (so
every repetition reports its own high-water RSS), until the repetitions'
measured windows add up to --seconds, with at least MIN_REPS repetitions.
Every repetition's simulated outputs are checked: against the pins in
pins.json when the seed is pinned, against the run's first repetition
(determinism), against workload invariants, and, for macro_sharded,
against the single-engine macro_churn result for the same seed.

--trace 0 reports the end-to-end metrics as medians over the repetitions.
--trace 1 runs untraced repetitions for half the time, then traced ones
(counting allocator, layer replays) for the other half, and reports every
per-layer metric plus trace.overhead.  The traced repetitions' spans (each
call the driver made into a layer, with its parent, start and end) are
written to .bench_build/spans/.  metrics.json lists the metrics and which
end-to-end metric each per-layer one should move.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it describes the host and the
repetitions.  Bad arguments exit 2; a failed build exits 1.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REF_DIR = os.path.join(ROOT, ".bench_build", "refs")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "spans")

WORKLOADS = ("nat_stream", "macro_churn", "macro_sharded")
MIN_REPS = 3
# Each half of a traced run (untraced baseline, traced repetitions).
TRACE_MIN_REPS = 2
# Repetitions stop being started once a run has used this much wall time,
# so a run ends well inside three minutes even on a slow host.
WALL_LIMIT_S = 120.0
DRIVER_TIMEOUT_S = 150.0

# The workload shapes.  The seed is the only input that varies; the driver
# receives the generated configuration, never the seed's meaning.
NAT_STREAM = {"warmup_ms": 150, "stream_ms": 1000, "msg_bytes": 1280,
              "rr_bytes": 256}
# scenario::run_macro_scale at the abl_macro_scale --full shape, plus one
# overlay pair per machine so the overlay cache carries traffic.
MACRO = {"machines": 200, "machines_per_rack": 20, "spines": 4,
         "trace_users": 256, "flows": 100000, "overlay_pairs": 1,
         "tcp_streams": 8, "arrival_ms": 200, "drain_ms": 80,
         "idle_ms": 60, "gc_ms": 25}


class StrictParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(2)


def seed_arg(text):
    if not text.isdigit() or int(text) >= 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"seed must be an unsigned 64-bit integer, got {text!r}")
    return int(text)


def positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def parse_args(argv):
    p = StrictParser(prog="perfbench/run.py", allow_abbrev=False,
                     description="nestv benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=positive_int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def workload_config(workload, seed, cpus):
    """Driver arguments for one repetition, as an ordered dict."""
    if workload == "nat_stream":
        cfg = {"kind": "nat_stream", "seed": seed, **NAT_STREAM}
    else:
        shards = 1 if workload == "macro_churn" else min(4, cpus)
        cfg = {"kind": "macro", "seed": seed, **MACRO,
               "shards": shards, "workers": shards}
    return cfg


def driver_argv(binary, cfg):
    return [binary] + [f"{k}={v}" for k, v in cfg.items()]


# ---- build -----------------------------------------------------------------

def build():
    """Configures once and builds; returns {variant: binary path}."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(nproc())],
                       check=True, stdout=sys.stderr)
    return {v: os.path.join(BUILD_DIR, f"perfbench_{v}")
            for v in ("untraced", "traced")}


def run_driver(binary, cfg):
    """One repetition; returns the driver's JSON, or None if it failed."""
    try:
        proc = subprocess.run(driver_argv(binary, cfg), capture_output=True,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("driver timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"driver exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- correctness -----------------------------------------------------------

def load_pins():
    with open(os.path.join(BENCH_DIR, "pins.json")) as f:
        return json.load(f)


def pin_group(workload):
    return "nat_stream" if workload == "nat_stream" else "macro"


def invariant_problems(workload, outputs):
    """Properties every seed must satisfy, pinned or not."""
    if workload == "nat_stream":
        checks = {
            "stream moved bytes": outputs["stream_bytes"] > 0,
            "warmup completed transactions": outputs["rr_transactions"] > 0,
            "lossless testbed never retransmits": outputs["retransmits"] == 0,
        }
    else:
        checks = {
            "every open-loop flow completed":
                outputs["flows_completed"] == MACRO["flows"],
            "each flow ran at least one transaction":
                outputs["rr_transactions"] >= MACRO["flows"],
            "streams moved bytes": outputs["stream_bytes"] > 0,
            "per-flow state was tracked": outputs["state_bytes_at_peak"] > 0,
            "overlay cache served hits": outputs["oncache_hits"] > 0,
        }
    return [name for name, ok in checks.items() if not ok]


def mismatches(outputs, expected, label):
    return [f"{key}: {outputs.get(key)!r} != {label} {want!r}"
            for key, want in expected.items() if outputs.get(key) != want]


def rep_problems(workload, seed, outputs, pins, reference):
    """Every reason this repetition's outputs are wrong (empty if right)."""
    problems = invariant_problems(workload, outputs)
    pinned = pins[pin_group(workload)].get(str(seed))
    if pinned is not None:
        problems += mismatches(outputs, pinned, "pin")
    if reference is not None:
        problems += mismatches(outputs, reference, "reference")
    return problems


def ref_path(seed):
    shape = json.dumps(workload_config("macro_churn", seed, 1), sort_keys=True)
    digest = hashlib.sha1(shape.encode()).hexdigest()[:16]
    return os.path.join(REF_DIR, f"macro-{digest}.json")


def load_ref(seed):
    try:
        with open(ref_path(seed)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def store_ref(seed, outputs):
    os.makedirs(REF_DIR, exist_ok=True)
    tmp = ref_path(seed) + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(outputs, f)
    os.replace(tmp, ref_path(seed))


def macro_reference(workload, seed, binaries):
    """The single-engine outputs macro_sharded must reproduce.

    macro_churn runs leave their (checked) outputs in .bench_build/refs;
    without one, macro_sharded runs the single-engine repetition itself,
    outside any timed window.
    """
    if workload == "nat_stream":
        return None
    ref = load_ref(seed)
    if ref is None and workload == "macro_sharded":
        rep = run_driver(binaries["untraced"],
                         workload_config("macro_churn", seed, 1))
        if rep is not None:
            ref = rep["outputs"]
            if not rep_problems("macro_churn", seed, ref, load_pins(), None):
                store_ref(seed, ref)
    return ref


# ---- repetitions -----------------------------------------------------------

class Tally:
    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.pins = load_pins()
        self.reference = reference
        # macro_sharded is only correct relative to the single engine.
        self.needs_reference = workload == "macro_sharded"
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, rep):
        """Counts the repetition; returns it when its outputs are right."""
        self.attempted += 1
        if rep is None:
            self.failed += 1
            self.problems.append("driver failed")
            return None
        if self.reference is None and not self.needs_reference:
            # Determinism: every repetition must repeat the first.
            self.reference = rep["outputs"]
        problems = rep_problems(self.workload, self.seed, rep["outputs"],
                                self.pins, self.reference)
        if self.reference is None:
            problems.append("no single-engine reference to compare with")
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return rep


def repeat(binary, cfg, seconds, min_reps, tally, started):
    """Runs repetitions until their windows add up to `seconds`."""
    good = []
    measured = 0.0
    attempts = 0
    while (measured < seconds or attempts < min_reps) and \
            time.monotonic() - started < WALL_LIMIT_S:
        attempts += 1
        rep = tally.check(run_driver(binary, cfg))
        if rep is not None:
            good.append(rep)
            measured += rep["timing"]["run_s"]
        elif not good and attempts >= min_reps:
            break
    return good


# ---- metrics ---------------------------------------------------------------

def median(reps, section, key):
    return statistics.median(r[section][key] for r in reps)


def end_to_end(reps, tally):
    return {
        "run_s": median(reps, "timing", "run_s"),
        "setup_s": median(reps, "timing", "setup_s"),
        "cpu_s": median(reps, "timing", "cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "correct_share": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(traced, untraced):
    """Every per-layer metric from the traced and untraced repetitions.

    Counters are deterministic, so the first traced repetition's are used;
    wall-clock numbers are medians.  A layer's share of run_s is its
    replayed ns per call times the run's call count, over the window's
    worker-seconds; the shares are estimates and are not forced to sum to
    one — what they leave is share.unexplained.
    """
    c = traced[0]["counters"]
    rp = {k: statistics.median(r["replay"][k] for r in traced)
          for k in traced[0]["replay"]}
    run_traced = median(traced, "timing", "run_s")
    run_plain = median(untraced, "timing", "run_s")
    workers = traced[0]["workers"]
    window_ns = run_traced * 1e9 * workers
    events = c["events"]
    get = c.get
    packets = get("packets", 0)
    reaped = get("conntrack_gc_reaped", 0)

    shares = {
        "share.sim.event_queue": rp["schedule_pop_ns"] * events,
        "share.net.netfilter":
            rp.get("run_hook_ns", 0) * get("hook_traversals", 0),
        "share.net.route":
            rp.get("route_lookup_ns", 0) * get("routed_packets", 0),
        "share.net.conntrack":
            (rp["conntrack_create_ns"] + rp["conntrack_erase_ns"]) * reaped,
        "share.net.flowcache":
            (rp.get("flowcache_insert_ns", 0) +
             rp.get("flowcache_invalidate_conn_ns", 0)) * reaped,
        "share.net.oncache":
            rp.get("oncache_lookup_ns", 0) * get("oncache_hits", 0),
    }
    shares = {k: v / window_ns for k, v in shares.items()}
    shares["share.unexplained"] = 1.0 - sum(shares.values())

    return {
        "sim.events": events,
        "sim.events_coalesced": get("events_coalesced", 0),
        "sim.ns_per_event": run_plain * 1e9 / events,
        "sim.events_per_s": events / run_plain,
        "sim.event_queue.depth": rp["event_queue_depth"],
        "sim.event_queue.schedule_pop_ns": rp["schedule_pop_ns"],
        "sim.conductor.epochs": get("epochs", 0),
        "sim.conductor.fused_epochs": get("fused_epochs", 0),
        "sim.conductor.cross_posts": get("cross_posts", 0),
        "sim.conductor.idle_windows": get("idle_windows", 0),
        "sim.conductor.barrier_wait_share":
            get("barrier_wait_ns", 0) / window_ns,
        "sim.conductor.partition_ceiling":
            events / get("max_shard_events", events),
        "net.netfilter.hook_traversals": get("hook_traversals", 0),
        "net.netfilter.run_hook_ns": rp.get("run_hook_ns", 0),
        "net.route.lookup_ns": rp.get("route_lookup_ns", 0),
        "net.conntrack.find_ns": rp["conntrack_find_ns"],
        "net.conntrack.create_ns": rp["conntrack_create_ns"],
        "net.conntrack.erase_ns": rp["conntrack_erase_ns"],
        "net.conntrack.peak_entries":
            get("conntrack_peak_entries", get("conntrack_entries", 0)),
        "net.conntrack.gc_reaped": reaped,
        "net.flowcache.lookup_ns": rp.get("flowcache_lookup_ns", 0),
        "net.flowcache.insert_ns": rp.get("flowcache_insert_ns", 0),
        "net.flowcache.invalidate_conn_ns":
            rp.get("flowcache_invalidate_conn_ns", 0),
        "net.flowcache.entries_at_peak": get("flowcache_entries_at_peak", 0),
        "net.oncache.lookup_ns": rp.get("oncache_lookup_ns", 0),
        "net.oncache.hits": get("oncache_hits", 0),
        "net.oncache.entries_at_peak": get("oncache_entries_at_peak", 0),
        "net.state_bytes_per_flow": get("state_bytes_per_flow", 0),
        "net.packet_pool.fresh_allocs": get("pool_fresh_allocs", 0),
        "net.packet_pool.reuses": get("pool_reuses", 0),
        "net.frames_cloned": get("frames_cloned", 0),
        "net.heap_allocs_per_packet":
            get("heap_allocs", 0) / packets if packets else 0,
        "net.tcp.retransmits": get("tcp_retransmits", 0),
        "net.bridge.frames_forwarded": get("bridge_frames_forwarded", 0),
        "net.bridge.floods": get("bridge_floods", 0),
        "vmm.virtio.tx_frames": get("virtio_tx_frames", 0),
        "vmm.virtio.tx_kicks": get("virtio_tx_kicks", 0),
        "vmm.virtio.rx_polls": get("virtio_rx_polls", 0),
        "vmm.sim_soft_ns_per_packet.host":
            get("sim_soft_ns_per_packet_host", 0),
        "vmm.sim_soft_ns_per_packet.guest":
            get("sim_soft_ns_per_packet_guest", 0),
        "vmm.sim_guest_ns_per_packet": get("sim_guest_ns_per_packet", 0),
        "scenario.build_s": median(traced, "timing", "build_s"),
        "workload.warmup_s": statistics.median(
            r["timing"].get("warmup_s", 0) for r in traced),
        "scenario.teardown_s": median(traced, "timing", "teardown_s"),
        "orch.pods_scheduled": get("pods_scheduled", 0),
        "orch.vms_bought": get("vms_bought", 0),
        **shares,
        "trace.overhead": run_traced / run_plain - 1.0,
    }


def with_units(values, kind):
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        spec = json.load(f)[kind]
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in spec}


def save_spans(workload, seed, traced):
    """Writes the traced repetitions' spans out; returns the file's path."""
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"{workload}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump([r["spans"] for r in traced], f, indent=1)
    return os.path.relpath(path, ROOT)


def host_shape(rep):
    """What makes numbers from different hosts and commits comparable."""
    cpus = nproc()
    return {
        "nproc": cpus,
        "hardware_concurrency": rep["hardware_concurrency"],
        "compiler": rep["compiler"],
        "build_type": rep["build_type"],
        "shards": rep["shards"],
        "workers": rep["workers"],
        "oversubscribed": rep["workers"] > cpus,
    }


def main(argv):
    args = parse_args(argv)
    try:
        binaries = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    started = time.monotonic()

    cfg = workload_config(args.workload, args.seed, nproc())
    tally = Tally(args.workload, args.seed,
                  macro_reference(args.workload, args.seed, binaries))
    if args.trace == "0":
        untraced = repeat(binaries["untraced"], cfg, args.seconds, MIN_REPS,
                          tally, started)
        traced = []
    else:
        half = args.seconds / 2
        untraced = repeat(binaries["untraced"], cfg, half, TRACE_MIN_REPS,
                          tally, started)
        traced = repeat(binaries["traced"], cfg, half, TRACE_MIN_REPS,
                        tally, started)
    if not untraced or (args.trace == "1" and not traced):
        print(f"perfbench: no correct repetition: {tally.problems[:5]}",
              file=sys.stderr)
        return 1
    if args.workload == "macro_churn" and tally.failed == 0:
        store_ref(args.seed, untraced[0]["outputs"])

    detail = {"workload": args.workload, "seed": args.seed,
              "host": host_shape(untraced[0])}
    if args.trace == "0":
        metrics = with_units(end_to_end(untraced, tally), "end_to_end")
    else:
        metrics = with_units(per_layer(traced, untraced), "per_layer")
        detail["spans"] = save_spans(args.workload, args.seed, traced)
    print(json.dumps({
        **detail,
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "run_s": [r["timing"]["run_s"] for r in untraced],
        "problems": tally.problems[:20],
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
