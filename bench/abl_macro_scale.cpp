// Ablation — macro-scale churn: hierarchical fabric, open-loop flow
// arrival/departure, and compact per-flow state.
//
// Runs scenario::run_macro_scale (two-tier ToR/spine fabric with
// deterministic per-flow ECMP, NAT / BrFusion / Hostlo churn flows on the
// Google-trace placement) once per shard count and reports three things:
//   * equivalence: every simulated output of the shards=N run must match
//     the shards=1 run bit-for-bit.  `shards1_equivalence_max_delta` is
//     the max absolute difference over those outputs and CI gates it with
//     check_bench.py --require-zero.  This extends the abl_sharding
//     guarantee to multi-path fabrics: ECMP tie-breaks are a pure hash of
//     the flow tuple, so the path — like the keyed wire delivery order —
//     is a property of the flow, not of the execution mode.
//   * churn throughput: wall-clock events/sec per shard count ("wall" in
//     the metric name exempts the host-dependent numbers from gating).
//   * bytes of per-flow state: conntrack + flowcache resident bytes per
//     tracked flow at peak occupancy, next to a model of the node-based
//     structures this layout replaced (see legacy_model notes below).
//
// Flags (beyond the common `[seed] [--jobs N] [--shards N]`):
//   --full          200 machines / 100k flows — the EXPERIMENTS.md
//                   macro-scale configuration (minutes of wall time;
//                   nightly CI runs this, the PR bench job runs the
//                   default smoke size).
//   --machines=N    override the machine count.
//   --flows=N       override the churn flow count.  The 10^6-flow point in
//                   EXPERIMENTS.md is `--full --machines=400
//                   --flows=1000000` (use the `=` forms: a bare number is
//                   taken as the seed).
//   --shards N      single configuration, no sweep (the TSan CI entry
//                   point, as in abl_sharding).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "net/conn_table.hpp"
#include "net/flowcache/flowcache.hpp"
#include "scenario/macro_scale.hpp"

namespace {

using nestv::scenario::MacroScaleConfig;
using nestv::scenario::MacroScaleResult;

// ---- legacy per-flow footprint replica ------------------------------------
//
// The structures this layout replaced (still readable at the git history
// of net/netfilter.hpp and net/flowcache/flowcache.hpp):
//   * conntrack: std::unordered_map<ConnKey, id> holding both tuple
//     directions plus std::unordered_map<id, ConnEntry>;
//   * flowcache: std::list<Entry{FlowKey, CachedPath}> plus
//     std::unordered_map<FlowKey, list::iterator>, with two std::string
//     interface names inside every CachedPath.
// Rather than model those with sizeof arithmetic (which ignores real node
// layouts and allocator overhead), the bench *rebuilds* them through a
// counting allocator at the same entry population the compact tables held
// at peak, charging each allocation what glibc malloc actually reserves
// for it: max(32, 16-byte-aligned(request + 8)).  Interface names use
// short (SSO) strings, so no string heap spill is charged — the replica
// still slightly understates the legacy footprint and the reported ratio
// is a floor.  The byte count is a pure function of the entry counts and
// the libstdc++ container layouts, so it is deterministic and gated like
// every other metric.

std::size_t g_replica_bytes = 0;

[[nodiscard]] std::size_t malloc_chunk_bytes(std::size_t request) {
  const std::size_t chunk = (request + 8 + 15) & ~std::size_t{15};
  return chunk < 32 ? 32 : chunk;
}

template <typename T>
struct CountingAlloc {
  using value_type = T;
  CountingAlloc() = default;
  template <typename U>
  CountingAlloc(const CountingAlloc<U>&) {}  // NOLINT(google-explicit-*)
  T* allocate(std::size_t n) {
    g_replica_bytes += malloc_chunk_bytes(n * sizeof(T));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* ptr, std::size_t n) {
    g_replica_bytes -= malloc_chunk_bytes(n * sizeof(T));
    std::allocator<T>{}.deallocate(ptr, n);
  }
  template <typename U>
  bool operator==(const CountingAlloc<U>&) const {
    return true;
  }
};

/// net/netfilter.hpp's ConnEntry as of the node-based implementation
/// (field order matters: it sets the padding the replica pays).
struct LegacyConnEntry {
  nestv::net::ConnKey orig;
  nestv::net::ConnKey reply;
  bool snat = false;
  bool dnat = false;
  nestv::net::Ipv4Address snat_ip;
  std::uint16_t snat_port = 0;
  nestv::net::Ipv4Address dnat_ip;
  std::uint16_t dnat_port = 0;
  bool confirmed = false;
  nestv::sim::TimePoint last_seen = 0;
  std::uint64_t packets = 0;
};

/// net/flowcache/flowcache.hpp's CachedPath as of the node-based
/// implementation (heap strings, u64 stamps, full-width cost).
struct LegacyCachedPath {
  using Action = nestv::net::flowcache::CachedPath::Action;
  Action action = Action::kForward;
  int out_ifindex = -1;
  nestv::net::Ipv4Address new_src_ip;
  nestv::net::Ipv4Address new_dst_ip;
  std::uint16_t new_src_port = 0;
  std::uint16_t new_dst_port = 0;
  bool rewrites = false;
  nestv::net::MacAddress next_hop_mac;
  std::uint64_t ct_id = 0;
  std::string in_iface;
  std::string out_iface;
  nestv::sim::Duration fast_cost = 0;
  std::uint64_t generation = 0;
  std::uint64_t routes_gen = 0;
};

/// Resident bytes of the legacy structures holding `conns` confirmed
/// connections and `fc_entries` cached paths.
std::uint64_t measure_legacy_bytes(std::uint64_t conns,
                                   std::uint64_t fc_entries) {
  using nestv::net::ConnKey;
  using nestv::net::ConnKeyHash;
  using nestv::net::Ipv4Address;
  using nestv::net::L4Proto;
  using nestv::net::flowcache::FlowKey;
  using nestv::net::flowcache::FlowKeyHash;

  g_replica_bytes = 0;
  std::uint64_t at_peak = 0;
  {
    std::unordered_map<ConnKey, std::uint64_t, ConnKeyHash,
                       std::equal_to<ConnKey>,
                       CountingAlloc<std::pair<const ConnKey, std::uint64_t>>>
        by_tuple;
    std::unordered_map<
        std::uint64_t, LegacyConnEntry, std::hash<std::uint64_t>,
        std::equal_to<std::uint64_t>,
        CountingAlloc<std::pair<const std::uint64_t, LegacyConnEntry>>>
        conn_store;
    using FcEntry = std::pair<FlowKey, LegacyCachedPath>;
    std::list<FcEntry, CountingAlloc<FcEntry>> lru;
    std::unordered_map<
        FlowKey, typename std::list<FcEntry, CountingAlloc<FcEntry>>::iterator,
        FlowKeyHash, std::equal_to<FlowKey>,
        CountingAlloc<std::pair<
            const FlowKey,
            typename std::list<FcEntry, CountingAlloc<FcEntry>>::iterator>>>
        fc_index;

    for (std::uint64_t i = 0; i < conns; ++i) {
      LegacyConnEntry e;
      e.orig.src_ip = Ipv4Address(static_cast<std::uint32_t>(i));
      e.orig.dst_ip = Ipv4Address(static_cast<std::uint32_t>(~i));
      e.orig.src_port = 40000;
      e.orig.dst_port = 80;
      e.orig.proto = L4Proto::kTcp;
      e.reply = e.orig;
      std::swap(e.reply.src_ip, e.reply.dst_ip);
      std::swap(e.reply.src_port, e.reply.dst_port);
      e.confirmed = true;
      by_tuple.emplace(e.orig, i + 1);
      by_tuple.emplace(e.reply, i + 1);
      conn_store.emplace(i + 1, e);
    }
    for (std::uint64_t i = 0; i < fc_entries; ++i) {
      FlowKey key;
      key.src_ip = Ipv4Address(static_cast<std::uint32_t>(i));
      key.dst_ip = Ipv4Address(static_cast<std::uint32_t>(~i));
      key.src_port = 40000;
      key.dst_port = 80;
      key.proto = L4Proto::kTcp;
      key.in_ifindex = 1;
      LegacyCachedPath path;
      path.ct_id = i + 1;
      path.in_iface = "eth0";
      path.out_iface = "eth0";
      lru.emplace_back(key, std::move(path));
      fc_index.emplace(key, std::prev(lru.end()));
    }
    at_peak = g_replica_bytes;
  }
  return at_peak;
}

// ---------------------------------------------------------------------------

MacroScaleConfig base_config(std::uint64_t seed, bool full, int machines,
                             int flows) {
  MacroScaleConfig cfg;
  cfg.seed = seed;
  if (full) {
    // The EXPERIMENTS.md macro-scale point: 200 machines in 20-machine
    // racks under 4 spines, 100k churn flows.  Entries persist past flow
    // completion until idle-GC reaps them, so peak tracked state is set by
    // arrival rate x (idle timeout + flow lifetime) x stacks-per-path.
    cfg.machines = 200;
    cfg.machines_per_rack = 20;
    cfg.spines = 4;
    cfg.trace_users = 256;
    cfg.flows = 100000;
    cfg.arrival_window = nestv::sim::milliseconds(200);
    cfg.drain = nestv::sim::milliseconds(80);
    cfg.conntrack_idle = nestv::sim::milliseconds(60);
    cfg.gc_interval = nestv::sim::milliseconds(25);
    cfg.tcp_streams = 8;
  } else {
    // Smoke size for the PR bench job: still >= 16 machines so the
    // {1, 4, 16} shard sweep is meaningful, but small enough for a
    // shared 1-CPU runner.
    cfg.machines = 16;
    cfg.machines_per_rack = 4;
    cfg.spines = 2;
    cfg.trace_users = 48;
    cfg.flows = 1200;
    cfg.arrival_window = nestv::sim::milliseconds(120);
    cfg.drain = nestv::sim::milliseconds(60);
    cfg.tcp_streams = 2;
  }
  if (machines > 0) cfg.machines = machines;
  if (flows > 0) cfg.flows = flows;
  return cfg;
}

MacroScaleResult run_point(const MacroScaleConfig& base, int shards) {
  MacroScaleConfig cfg = base;
  cfg.shards = shards;
  // Workers = shards keeps the thread count deterministic (independent of
  // the host's core count) and gives each shard its own worker.
  cfg.max_workers = static_cast<unsigned>(shards);
  return nestv::scenario::run_macro_scale(cfg);
}

double events_per_sec(const MacroScaleResult& r) {
  return r.wall_seconds > 0
             ? static_cast<double>(r.events_total) / r.wall_seconds
             : 0.0;
}

/// Max absolute difference over every simulated (deterministic) output.
/// Zero means the sharded run is the single-engine run, bit for bit.
double max_delta(const MacroScaleResult& a, const MacroScaleResult& b) {
  double d = 0.0;
  auto acc = [&d](double x, double y) {
    const double diff = std::fabs(x - y);
    if (diff > d) d = diff;
  };
  acc(a.flows_completed, b.flows_completed);
  acc(a.rr_transactions, b.rr_transactions);
  acc(a.rr_latency_ns_sum, b.rr_latency_ns_sum);
  acc(a.stream_bytes_delivered, b.stream_bytes_delivered);
  acc(a.flow_digest, b.flow_digest);
  acc(static_cast<double>(a.peak_concurrent_flows),
      static_cast<double>(b.peak_concurrent_flows));
  acc(static_cast<double>(a.conntrack_peak_entries),
      static_cast<double>(b.conntrack_peak_entries));
  acc(static_cast<double>(a.state_bytes_at_peak),
      static_cast<double>(b.state_bytes_at_peak));
  acc(static_cast<double>(a.conntrack_bytes_at_peak),
      static_cast<double>(b.conntrack_bytes_at_peak));
  acc(static_cast<double>(a.flowcache_bytes_at_peak),
      static_cast<double>(b.flowcache_bytes_at_peak));
  acc(static_cast<double>(a.flowcache_entries_at_peak),
      static_cast<double>(b.flowcache_entries_at_peak));
  acc(static_cast<double>(a.conntrack_gc_reaped),
      static_cast<double>(b.conntrack_gc_reaped));
  acc(a.pods_scheduled, b.pods_scheduled);
  acc(a.vms_bought, b.vms_bought);
  acc(a.placement_cost_per_hour, b.placement_cost_per_hour);
  acc(static_cast<double>(a.events_total),
      static_cast<double>(b.events_total));
  return d;
}

void print_point(const MacroScaleResult& r, double delta) {
  std::printf(
      "  shards=%-2d workers=%-2u events=%llu  epochs=%llu (%llu fused)  "
      "posts=%llu  wall=%.3fs  ev/s=%.3g  delta=%.17g\n",
      r.shards, r.worker_threads,
      static_cast<unsigned long long>(r.events_total),
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.fused_epochs),
      static_cast<unsigned long long>(r.cross_posts), r.wall_seconds,
      events_per_sec(r), delta);
}

std::uint64_t sum_u64(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (const std::uint64_t x : v) s += x;
  return s;
}

/// Wall-clock speedup numbers only mean something when every worker can
/// have a core.  When the host has fewer hardware threads than the widest
/// sweep point has workers, say so and record it next to the wall metrics
/// ("wall" in the name keeps it out of the determinism gate, like the
/// numbers it annotates).
bool note_oversubscription(nestv::bench::JsonReport& report, int shards) {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool oversubscribed = hw != 0 && hw < static_cast<unsigned>(shards);
  if (oversubscribed) {
    std::printf(
        "note: %d workers on %u hardware threads — wall speedups below "
        "measure oversubscription, not scaling\n",
        shards, hw);
  }
  report.add("wall_oversubscribed_s" + std::to_string(shards),
             oversubscribed ? 1.0 : 0.0);
  return oversubscribed;
}

void add_sim_outputs(nestv::bench::JsonReport& report,
                     const MacroScaleResult& r) {
  report.add("flows_completed", r.flows_completed);
  report.add("rr_transactions", r.rr_transactions);
  report.add("rr_latency_ns_sum", r.rr_latency_ns_sum);
  report.add("stream_bytes_delivered", r.stream_bytes_delivered);
  report.add("flow_digest", r.flow_digest);
  report.add("peak_concurrent_flows",
             static_cast<double>(r.peak_concurrent_flows));
  report.add("conntrack_peak_entries",
             static_cast<double>(r.conntrack_peak_entries));
  report.add("state_bytes_at_peak",
             static_cast<double>(r.state_bytes_at_peak));
  report.add("state_bytes_per_flow", r.state_bytes_per_flow);
  report.add("conntrack_bytes_at_peak",
             static_cast<double>(r.conntrack_bytes_at_peak));
  report.add("flowcache_bytes_at_peak",
             static_cast<double>(r.flowcache_bytes_at_peak));
  report.add("flowcache_entries_at_peak",
             static_cast<double>(r.flowcache_entries_at_peak));
  report.add("conntrack_gc_reaped",
             static_cast<double>(r.conntrack_gc_reaped));
  report.add("pods_scheduled", r.pods_scheduled);
  report.add("vms_bought", r.vms_bought);
  report.add("placement_cost_per_hour", r.placement_cost_per_hour);
  report.add("events_total", static_cast<double>(r.events_total));
}

/// The compact-state headline block: measured bytes/flow against the
/// rebuilt legacy structures.  Deterministic (a pure function of the
/// entry counts on one toolchain), so check_bench.py gates these like any
/// simulated output.  The replica holds the *same* entry population the
/// compact tables held at peak: one conntrack entry per tracked
/// connection plus one cached path per live flowcache entry (cached
/// paths are per-direction, so that count can exceed the connection
/// count).
double legacy_model_bytes(const MacroScaleResult& r) {
  return static_cast<double>(measure_legacy_bytes(
      r.conntrack_peak_entries, r.flowcache_entries_at_peak));
}

void add_state_metrics(nestv::bench::JsonReport& report,
                       const MacroScaleResult& r) {
  const double legacy = legacy_model_bytes(r);
  const double per_flow =
      r.conntrack_peak_entries > 0
          ? legacy / static_cast<double>(r.conntrack_peak_entries)
          : 0.0;
  report.add("legacy_model_bytes_per_flow", per_flow);
  report.add("state_compaction_ratio",
             r.state_bytes_at_peak > 0
                 ? legacy / static_cast<double>(r.state_bytes_at_peak)
                 : 0.0);
}

void print_state_summary(const MacroScaleResult& r) {
  const double legacy = legacy_model_bytes(r);
  const double ct = static_cast<double>(r.conntrack_peak_entries);
  std::printf(
      "\nper-flow state at peak occupancy (%llu connections, %llu cached "
      "paths):\n"
      "  compact tables : %8.1f B/flow  (%llu B resident: conntrack %llu, "
      "flowcache %llu)\n"
      "  legacy replica : %8.1f B/flow  (node-based maps + list rebuilt "
      "over the same entries, glibc chunk sizes charged)\n"
      "  ratio          : %8.2fx\n",
      static_cast<unsigned long long>(r.conntrack_peak_entries),
      static_cast<unsigned long long>(r.flowcache_entries_at_peak),
      r.state_bytes_per_flow,
      static_cast<unsigned long long>(r.state_bytes_at_peak),
      static_cast<unsigned long long>(r.conntrack_bytes_at_peak),
      static_cast<unsigned long long>(r.flowcache_bytes_at_peak),
      ct > 0 ? legacy / ct : 0.0,
      r.state_bytes_at_peak > 0
          ? legacy / static_cast<double>(r.state_bytes_at_peak)
          : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nestv;
  const auto args = bench::parse_args(argc, argv);
  bool full = false;
  int machines = 0;
  int flows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strncmp(argv[i], "--machines=", 11) == 0) {
      machines = bench::int_arg(argv[i] + 11, "--machines");
    } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flows = bench::int_arg(argv[i] + 8, "--flows");
    }
  }
  const MacroScaleConfig base = base_config(args.seed, full, machines, flows);

  std::printf(
      "ablation: macro-scale churn (%d machines, %d racks x %d, %d spines, "
      "%d flows)\n",
      base.machines,
      (base.machines + base.machines_per_rack - 1) / base.machines_per_rack,
      base.machines_per_rack, base.spines, base.flows);

  if (args.shards > 0) {
    // Single configuration — the TSan CI job's entry point.
    const auto r = run_point(base, args.shards);
    print_point(r, 0.0);
    print_state_summary(r);
    bench::JsonReport report("abl_macro_scale", args.seed);
    report.set_execution_info(r.shards, r.worker_threads,
                              r.per_shard_events);
    report.set_conductor_info(r);
    add_sim_outputs(report, r);
    add_state_metrics(report, r);
    note_oversubscription(report, r.shards);
    report.add("wall_seconds", r.wall_seconds);
    report.add("events_per_sec_wall", events_per_sec(r));
    report.write();
    return 0;
  }

  // The sweep must stay within machines (a shard needs at least one
  // machine), so --machines= overrides trim it.
  std::vector<int> sweep;
  for (int shards : {1, 4, 16}) {
    if (shards <= base.machines) sweep.push_back(shards);
  }

  std::vector<MacroScaleResult> results;
  double equivalence_delta = 0.0;
  for (int shards : sweep) {
    results.push_back(run_point(base, shards));
    const double delta = max_delta(results.front(), results.back());
    if (delta > equivalence_delta) equivalence_delta = delta;
    print_point(results.back(), delta);
  }
  const auto& base_r = results.front();
  print_state_summary(base_r);

  bench::JsonReport report("abl_macro_scale", args.seed);
  // Execution shape of the widest configuration.
  const auto& widest = results.back();
  report.set_execution_info(widest.shards, widest.worker_threads,
                            widest.per_shard_events);
  report.set_conductor_info(widest);

  // Simulated outputs of the shards=1 baseline: deterministic, gated.
  add_sim_outputs(report, base_r);
  add_state_metrics(report, base_r);
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
    report.add("drained_posts" + suffix,
               static_cast<double>(r.drained_posts));
    report.add("idle_windows" + suffix,
               static_cast<double>(sum_u64(r.idle_windows)));
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
               events_per_sec(r) / events_per_sec(base_r));
    note_oversubscription(report, r.shards);
  }
  std::printf(
      "\nequivalence max delta over sweep: %.17g (must be exactly 0)\n",
      equivalence_delta);
  report.write();
  return equivalence_delta == 0.0 ? 0 : 1;
}
