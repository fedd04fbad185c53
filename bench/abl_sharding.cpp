// Ablation — sharded conductor vs the single engine.
//
// Runs the datacenter macro scenario (8 machines, live NAT / BrFusion /
// Hostlo traffic on the Google-trace placement) once per shard count and
// reports two things:
//   * equivalence: every simulated output of the shards=N run must match
//     the shards=1 run bit-for-bit.  `shards1_equivalence_max_delta` is
//     the max absolute difference over those outputs and CI gates it with
//     check_bench.py --require-zero — this is the property that makes the
//     sharded conductor safe to use everywhere.
//   * speedup: wall-clock events/sec per shard count.  Wall numbers are
//     machine-dependent (the >= 2.5x @ 4 shards acceptance target needs
//     >= 4 free cores; in a 1-CPU container the sweep degenerates to ~1x)
//     so they carry "wall" in the metric name and are never gated.
//
// `--shards N` runs a single configuration instead of the sweep — the
// ThreadSanitizer CI job uses that to put real worker threads under TSan
// without paying for the whole sweep.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/datacenter_macro.hpp"

namespace {

using nestv::scenario::DatacenterMacroConfig;
using nestv::scenario::DatacenterMacroResult;

DatacenterMacroConfig base_config(std::uint64_t seed) {
  DatacenterMacroConfig cfg;
  cfg.seed = seed;
  cfg.machines = 8;
  cfg.trace_users = 32;
  cfg.flows = 24;
  cfg.measure_window = nestv::sim::milliseconds(100);
  return cfg;
}

DatacenterMacroResult run_point(std::uint64_t seed, int shards) {
  DatacenterMacroConfig cfg = base_config(seed);
  cfg.shards = shards;
  // Workers = shards keeps the thread count deterministic (independent of
  // the host's core count) and gives each shard its own worker.
  cfg.max_workers = static_cast<unsigned>(shards);
  return nestv::scenario::run_datacenter_macro(cfg);
}

double events_per_sec(const DatacenterMacroResult& r) {
  return r.wall_seconds > 0
             ? static_cast<double>(r.events_total) / r.wall_seconds
             : 0.0;
}

/// Max absolute difference over every simulated (deterministic) output.
/// Zero means the sharded run is the single-engine run, bit for bit.
double max_delta(const DatacenterMacroResult& a,
                 const DatacenterMacroResult& b) {
  double d = 0.0;
  auto acc = [&d](double x, double y) {
    const double diff = std::fabs(x - y);
    if (diff > d) d = diff;
  };
  acc(a.rr_transactions, b.rr_transactions);
  acc(a.rr_latency_ns_sum, b.rr_latency_ns_sum);
  acc(a.stream_bytes_delivered, b.stream_bytes_delivered);
  acc(a.flow_digest, b.flow_digest);
  acc(a.pods_scheduled, b.pods_scheduled);
  acc(a.vms_bought, b.vms_bought);
  acc(a.placement_cost_per_hour, b.placement_cost_per_hour);
  acc(static_cast<double>(a.events_total),
      static_cast<double>(b.events_total));
  return d;
}

void print_point(const DatacenterMacroResult& r, double delta) {
  std::printf(
      "  shards=%d  workers=%u  events=%llu  epochs=%llu (%llu fused)  "
      "posts=%llu  wall=%.3fs  ev/s=%.3g  delta=%.17g\n",
      r.shards, r.worker_threads,
      static_cast<unsigned long long>(r.events_total),
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.fused_epochs),
      static_cast<unsigned long long>(r.cross_posts), r.wall_seconds,
      events_per_sec(r), delta);
}

void add_sim_outputs(nestv::bench::JsonReport& report,
                     const DatacenterMacroResult& r) {
  report.add("rr_transactions", r.rr_transactions);
  report.add("rr_latency_ns_sum", r.rr_latency_ns_sum);
  report.add("stream_bytes_delivered", r.stream_bytes_delivered);
  report.add("flow_digest", r.flow_digest);
  report.add("pods_scheduled", r.pods_scheduled);
  report.add("vms_bought", r.vms_bought);
  report.add("placement_cost_per_hour", r.placement_cost_per_hour);
  report.add("events_total", static_cast<double>(r.events_total));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nestv;
  const auto args = bench::parse_args(argc, argv);

  std::printf("ablation: sharded conductor (datacenter macro, 8 machines)\n");

  if (args.shards > 0) {
    // Single configuration — the TSan CI job's entry point.
    const auto r = run_point(args.seed, args.shards);
    print_point(r, 0.0);
    bench::JsonReport report("abl_sharding", args.seed);
    report.set_execution_info(r.shards, r.worker_threads,
                              r.per_shard_events);
    report.set_conductor_info(r);
    add_sim_outputs(report, r);
    report.add("wall_seconds", r.wall_seconds);
    report.add("events_per_sec_wall", events_per_sec(r));
    report.write();
    return 0;
  }

  const int sweep[] = {1, 2, 4, 8};
  std::vector<DatacenterMacroResult> results;
  double equivalence_delta = 0.0;
  for (int shards : sweep) {
    results.push_back(run_point(args.seed, shards));
    const double delta = max_delta(results.front(), results.back());
    if (delta > equivalence_delta) equivalence_delta = delta;
    print_point(results.back(), delta);
  }
  const auto& base = results.front();

  bench::JsonReport report("abl_sharding", args.seed);
  // Execution shape of the widest configuration.
  const auto& widest = results.back();
  report.set_execution_info(widest.shards, widest.worker_threads,
                            widest.per_shard_events);
  report.set_conductor_info(widest);

  // Simulated outputs of the shards=1 baseline: deterministic, gated.
  add_sim_outputs(report, base);
  // The acceptance gate: CI runs check_bench.py --require-zero on this.
  report.add("shards1_equivalence_max_delta", equivalence_delta);
  // Cross-shard traffic and epoch-loop counts are deterministic per shard
  // count (they describe the simulated fabric and the conductor's window
  // schedule, not the host).
  for (const auto& r : results) {
    if (r.shards == 1) continue;
    const std::string suffix = "_s" + std::to_string(r.shards);
    report.add("cross_posts" + suffix, static_cast<double>(r.cross_posts));
    report.add("epochs" + suffix, static_cast<double>(r.epochs));
    report.add("fused_epochs" + suffix, static_cast<double>(r.fused_epochs));
  }
  // Wall metrics: host-dependent, "wall" in the name exempts them from
  // the determinism gate.
  for (const auto& r : results) {
    const std::string suffix = "_s" + std::to_string(r.shards);
    report.add("wall_seconds" + suffix, r.wall_seconds);
    report.add("events_per_sec_wall" + suffix, events_per_sec(r));
  }
  for (const auto& r : results) {
    if (r.shards == 1) continue;
    const std::string suffix = "_s" + std::to_string(r.shards);
    report.add("speedup_wall" + suffix,
               events_per_sec(r) / events_per_sec(base));
  }
  std::printf(
      "\nequivalence max delta over sweep: %.17g (must be exactly 0)\n",
      equivalence_delta);
  report.write();
  return equivalence_delta == 0.0 ? 0 : 1;
}
