// Shared drivers for the figure-regeneration benches.
//
// Every bench accepts an optional positional seed argument (default 42) and
// an optional `--jobs N` flag, and prints deterministic tables;
// EXPERIMENTS.md records these outputs against the paper's reported
// numbers.  With --jobs > 1 the independent measurement points of a sweep
// run on a thread pool — each simulation stays single-threaded and
// deterministic, and results are emitted in input order, so the printed
// tables and the BENCH_*.json files are identical to a sequential run.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "json_report.hpp"
#include "net/packet_pool.hpp"
#include "scenario/cross_vm.hpp"
#include "scenario/single_server.hpp"
#include "sim/cpu.hpp"
#include "sim/parse.hpp"
#include "workload/apps.hpp"
#include "workload/netperf.hpp"

namespace nestv::bench {

/// Command line shared by every bench: `[seed] [--jobs N] [--shards N]`.
/// `--jobs` parallelizes across a sweep's measurement points; `--shards`
/// parallelizes inside one simulation (benches that drive a
/// ShardedConductor — abl_sharding; 0 = the bench's own sweep/default).
struct BenchArgs {
  std::uint64_t seed = 42;
  int jobs = 1;
  int shards = 0;
};

/// Parses a non-negative int flag value; bad input exits 2 (sim/parse.hpp).
inline int int_arg(const char* text, const char* what) {
  return static_cast<int>(sim::parse_uint_or_exit(
      text, what, static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      a.jobs = int_arg(argv[++i], "--jobs");
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      a.jobs = int_arg(argv[i] + 7, "--jobs");
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      a.shards = int_arg(argv[++i], "--shards");
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      a.shards = int_arg(argv[i] + 9, "--shards");
    } else if (argv[i][0] != '-') {
      a.seed = sim::parse_uint_or_exit(argv[i], "seed");
    }
  }
  if (a.jobs < 1) a.jobs = 1;
  if (a.shards < 0) a.shards = 0;
  return a;
}

/// Oversubscription guard: sweeping J points in parallel while each point
/// itself runs T worker threads (a sharded conductor) puts J*T runnable
/// threads on the host.  Past the hardware thread count that adds only
/// scheduler churn and distorts every wall-clock reading, so sweeps clamp
/// `--jobs` to hardware_concurrency / T and the JSON execution section
/// reports the clamped value — what actually ran, not what was asked for.
/// Results are unaffected either way (each point is deterministic).
inline int effective_jobs(int jobs, int per_point_threads = 1) {
  if (jobs < 1) jobs = 1;
  if (per_point_threads < 1) per_point_threads = 1;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return jobs;  // unknown topology: trust the caller
  const int budget = static_cast<int>(hw) / per_point_threads;
  return budget < 1 ? 1 : (jobs < budget ? jobs : budget);
}

/// Maps `fn` over `inputs` on up to `jobs` worker threads and returns the
/// results in input order.  Each call of `fn` must be self-contained (every
/// measurement point builds its own Testbed/Engine, and all hot-path
/// counters — InlineTask fallbacks, PacketPool — are thread-local), so a
/// parallel sweep produces bit-for-bit the sequential output.  Points that
/// spin up their own workers pass that count as `per_point_threads` so the
/// oversubscription clamp sees the true thread demand.
template <typename In, typename Fn>
auto parallel_sweep(const std::vector<In>& inputs, int jobs, Fn fn,
                    int per_point_threads = 1)
    -> std::vector<decltype(fn(inputs[0]))> {
  using Out = decltype(fn(inputs[0]));
  std::vector<Out> results(inputs.size());
  const int asked = jobs;
  jobs = effective_jobs(jobs, per_point_threads);
  if (jobs < asked) {
    std::printf(
        "note: --jobs %d clamped to %d (%u hardware threads / %d "
        "threads per point)\n",
        asked, jobs, std::thread::hardware_concurrency(), per_point_threads);
  }
  if (jobs <= 1 || inputs.size() <= 1) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      results[i] = fn(inputs[i]);
    }
    return results;
  }
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), inputs.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= inputs.size()) return;
        results[i] = fn(inputs[i]);
      }
    });
  }
  for (auto& t : pool) t.join();
  return results;
}

/// The paper sweeps message sizes up to ~1408B (fig 4 / fig 10 x-axis).
inline const std::vector<std::uint32_t>& message_sizes() {
  static const std::vector<std::uint32_t> sizes{64,  256,  512,
                                                1024, 1280, 1408};
  return sizes;
}

inline std::uint64_t seed_from_args(int argc, char** argv) {
  return argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 42;
}

/// Per-run datapath statistics emitted into every bench's JSON: engine
/// events, packet-pool traffic and deep frame copies.  All counters are
/// engine-local or thread-local, so points measured on a parallel sweep
/// produce the same numbers as a sequential run.
struct DatapathStats {
  std::uint64_t events = 0;           ///< queue events executed
  std::uint64_t events_coalesced = 0; ///< completions folded by the burst layer
  std::uint64_t pool_fresh = 0;       ///< pool misses (real allocations)
  std::uint64_t pool_reuses = 0;      ///< pool hits
  std::uint64_t frames_cloned = 0;    ///< deep EthernetFrame copies
  std::uint64_t packets = 0;          ///< app-level packets moved

  DatapathStats& operator+=(const DatapathStats& o) {
    events += o.events;
    events_coalesced += o.events_coalesced;
    pool_fresh += o.pool_fresh;
    pool_reuses += o.pool_reuses;
    frames_cloned += o.frames_cloned;
    packets += o.packets;
    return *this;
  }
};

/// Snapshots the thread-local pool counters at construction; finish()
/// returns the deltas plus the engine's event counters.  Construct before
/// building the Testbed so setup traffic is included consistently.
class StatScope {
 public:
  StatScope()
      : fresh0_(net::PacketPool::local().fresh_allocs()),
        reuse0_(net::PacketPool::local().reuses()),
        cloned0_(net::PacketPool::frames_cloned()) {}

  [[nodiscard]] DatapathStats finish(sim::Engine& engine,
                                     std::uint64_t packets) const {
    auto& pool = net::PacketPool::local();
    DatapathStats s;
    s.events = engine.events_executed();
    s.events_coalesced = engine.events_coalesced();
    s.pool_fresh = pool.fresh_allocs() - fresh0_;
    s.pool_reuses = pool.reuses() - reuse0_;
    s.frames_cloned = net::PacketPool::frames_cloned() - cloned0_;
    s.packets = packets;
    return s;
  }

 private:
  std::uint64_t fresh0_;
  std::uint64_t reuse0_;
  std::uint64_t cloned0_;
};

/// App-level packets of one Netperf point: request+response per RR
/// transaction plus one msg-sized chunk per delivered stream byte run.
inline std::uint64_t netperf_packets(const workload::RrResult& rr,
                                     const workload::StreamResult& st,
                                     std::uint32_t msg_bytes) {
  return rr.transactions * 2 +
         (st.bytes_delivered + msg_bytes - 1) / msg_bytes;
}

/// Adds the consolidated datapath stats of a bench run to its JSON (all
/// deterministic, so tools/check_bench.py gates them; the CI bench job
/// folds them into BENCH_summary.json for the cross-PR perf trajectory).
inline void add_datapath_stats(JsonReport& report, const DatapathStats& s) {
  const double packets =
      s.packets ? static_cast<double>(s.packets) : 1.0;
  report.add("packets_total", static_cast<double>(s.packets));
  report.add("events_total", static_cast<double>(s.events));
  report.add("events_coalesced", static_cast<double>(s.events_coalesced));
  report.add("events_per_packet", static_cast<double>(s.events) / packets);
  report.add("pool_fresh_allocs", static_cast<double>(s.pool_fresh));
  report.add("pool_reuses", static_cast<double>(s.pool_reuses));
  report.add("pool_allocs_per_packet",
             static_cast<double>(s.pool_fresh) / packets);
  report.add("frames_cloned", static_cast<double>(s.frames_cloned));
}

/// Records the execution shape of a single-engine bench: one shard, the
/// sweep's *effective* worker threads (after the oversubscription clamp —
/// the execution section must describe what ran), and the summed engine
/// events of the measured points as that shard's event count.  Sharded
/// benches call JsonReport::set_execution_info directly with the
/// conductor's numbers.
inline void record_execution(JsonReport& report, const BenchArgs& args,
                             const DatapathStats& total) {
  report.set_execution_info(1,
                            static_cast<unsigned>(effective_jobs(args.jobs)),
                            {total.events});
}

struct MicroPoint {
  std::uint32_t msg_bytes = 0;
  double throughput_mbps = 0.0;
  double latency_us = 0.0;
  double latency_stddev_us = 0.0;
  std::uint64_t transactions = 0;
  DatapathStats stats;
};

/// One Netperf point (UDP_RR + TCP_STREAM) on a single-server scenario.
inline MicroPoint micro_point(scenario::ServerMode mode,
                              std::uint32_t msg_bytes, std::uint64_t seed,
                              sim::Duration rr_window = sim::milliseconds(150),
                              sim::Duration stream_window =
                                  sim::milliseconds(200),
                              scenario::TestbedConfig config = {}) {
  config.seed = seed;
  const StatScope scope;
  auto s = scenario::make_single_server(mode, 5001, config);
  workload::Netperf np(s.bed->engine(), s.client, s.server, 5001);
  const auto rr = np.run_udp_rr(msg_bytes, rr_window);
  const auto st = np.run_tcp_stream(msg_bytes, stream_window);
  return {msg_bytes,
          st.throughput_mbps,
          rr.mean_latency_us,
          rr.stddev_latency_us,
          rr.transactions,
          scope.finish(s.bed->engine(), netperf_packets(rr, st, msg_bytes))};
}

/// One Netperf point on a cross-VM scenario (fig 10).
inline MicroPoint cross_point(scenario::CrossVmMode mode,
                              std::uint32_t msg_bytes, std::uint64_t seed,
                              sim::Duration rr_window = sim::milliseconds(150),
                              sim::Duration stream_window =
                                  sim::milliseconds(200),
                              scenario::TestbedConfig config = {}) {
  config.seed = seed;
  const StatScope scope;
  auto s = scenario::make_cross_vm(mode, 6001, config);
  workload::Netperf np(s.bed->engine(), s.client, s.server, 6001);
  const auto rr = np.run_udp_rr(msg_bytes, rr_window);
  const auto st = np.run_tcp_stream(msg_bytes, stream_window);
  return {msg_bytes,
          st.throughput_mbps,
          rr.mean_latency_us,
          rr.stddev_latency_us,
          rr.transactions,
          scope.finish(s.bed->engine(), netperf_packets(rr, st, msg_bytes))};
}

enum class MacroApp { kMemcached, kNginx, kKafka };

inline const char* to_string(MacroApp a) {
  switch (a) {
    case MacroApp::kMemcached: return "memcached";
    case MacroApp::kNginx: return "nginx";
    case MacroApp::kKafka: return "kafka";
  }
  return "?";
}

struct MacroResult {
  workload::LoadResult load;
  /// usr/sys/soft/guest cores for selected accounts over the run window.
  struct CpuRow {
    std::string account;
    double usr = 0, sys = 0, soft = 0, guest = 0;
  };
  std::vector<CpuRow> cpu;
};

/// Runs one macro app over prepared endpoints, capturing CPU breakdowns.
template <typename BedOwner>
MacroResult run_macro(BedOwner& s, MacroApp app, std::uint16_t port,
                      std::uint64_t seed, sim::Duration window) {
  auto& engine = s.bed->engine();
  auto& ledger = s.bed->machine().ledger();

  workload::MacroDeployment d;
  switch (app) {
    case MacroApp::kMemcached:
      d = workload::deploy_memcached(s.client, s.server, port,
                                     sim::Rng(seed), {});
      break;
    case MacroApp::kNginx:
      d = workload::deploy_nginx(s.client, s.server, port, sim::Rng(seed),
                                 {});
      break;
    case MacroApp::kKafka:
      d = workload::deploy_kafka(s.client, s.server, port, sim::Rng(seed),
                                 {});
      break;
  }

  // Let connections establish, then measure over a clean CPU window.
  s.bed->run_for(sim::milliseconds(20));
  ledger.reset_all();
  const auto t0 = engine.now();

  MacroResult out;
  if (d.closed_client) {
    out.load = d.closed_client->run(engine, window);
  } else {
    out.load = d.open_client->run(engine, window);
  }
  const auto wall = engine.now() - t0;

  for (const auto* acc : ledger.accounts()) {
    MacroResult::CpuRow row;
    row.account = acc->name();
    row.usr = acc->cores(sim::CpuCategory::kUsr, wall);
    row.sys = acc->cores(sim::CpuCategory::kSys, wall);
    row.soft = acc->cores(sim::CpuCategory::kSoft, wall);
    row.guest = acc->cores(sim::CpuCategory::kGuest, wall);
    out.cpu.push_back(row);
  }
  return out;
}

inline void print_cpu_rows(const MacroResult& r) {
  std::printf("    %-28s %7s %7s %7s %7s\n", "account", "usr", "sys", "soft",
              "guest");
  for (const auto& row : r.cpu) {
    if (row.usr + row.sys + row.soft + row.guest < 1e-4) continue;
    std::printf("    %-28s %7.3f %7.3f %7.3f %7.3f\n", row.account.c_str(),
                row.usr, row.sys, row.soft, row.guest);
  }
}

}  // namespace nestv::bench
