// Machine-readable bench output: every bench writes BENCH_<name>.json
// next to its stdout table so CI and EXPERIMENTS.md tooling can diff the
// reproduced metrics against the paper's targets without scraping text.
//
// Standalone (stdio plus the plain sim::ConductorStats struct) so benches
// that do not link the workload layer (tab02_aws_catalog,
// abl_sched_policy, abl_conntrack) can include it.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/conductor_stats.hpp"

namespace nestv::bench {

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name, std::uint64_t seed = 42)
      : name_(std::move(bench_name)), seed_(seed) {}

  ~JsonReport() {
    if (!written_) write();
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Records one metric; pass `paper_target` (NaN = none) to also record
  /// the paper's reported number and the relative deviation from it.
  void add(const std::string& metric, double value,
           double paper_target = std::nan("")) {
    metrics_.push_back(Metric{metric, value, paper_target});
  }

  /// Records how the simulation executed: conductor shards, worker
  /// threads, and events per shard.  Serialized as top-level fields (not
  /// metrics) because they describe the execution, not the simulated
  /// system — check_bench.py folds them into BENCH_summary.json but never
  /// gates them.  Defaults (1 shard, 1 worker) describe every
  /// single-engine bench; benches driving a ShardedConductor override.
  void set_execution_info(int shards, unsigned worker_threads,
                          std::vector<std::uint64_t> per_shard_events) {
    shards_ = shards;
    worker_threads_ = worker_threads;
    per_shard_events_ = std::move(per_shard_events);
  }

  /// Optionally attaches the conductor's epoch-loop counters; serialized
  /// as a nested "execution" object, with the partition ceiling derived
  /// from the per-shard events.  They describe *how* the run
  /// executed, not the simulated system (barrier_wait_ns is wall clock,
  /// idle_windows follows the window schedule), so check_bench.py folds
  /// them into BENCH_summary.json and never gates them.  Pass a scenario
  /// result directly: it derives from sim::ConductorStats.
  void set_conductor_info(sim::ConductorStats info) {
    conductor_ = std::move(info);
    have_conductor_ = true;
  }

  /// Writes BENCH_<name>.json into the working directory.  The file is
  /// assembled under a temp name and renamed into place so an interrupted
  /// run never leaves a torn JSON behind.
  void write() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", tmp.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"seed\": %llu,\n",
                 name_.c_str(), static_cast<unsigned long long>(seed_));
    std::fprintf(f, "  \"shards\": %d,\n  \"worker_threads\": %u,\n",
                 shards_, worker_threads_);
    std::fprintf(f, "  \"per_shard_events\": [");
    for (std::size_t i = 0; i < per_shard_events_.size(); ++i) {
      std::fprintf(f, "%s%llu", i ? ", " : "",
                   static_cast<unsigned long long>(per_shard_events_[i]));
    }
    std::fprintf(f, "],\n");
    if (have_conductor_) {
      std::fprintf(f, "  \"execution\": {\n");
      std::fprintf(f, "    \"epochs\": %llu,\n",
                   static_cast<unsigned long long>(conductor_.epochs));
      std::fprintf(f, "    \"fused_epochs\": %llu,\n",
                   static_cast<unsigned long long>(conductor_.fused_epochs));
      std::fprintf(f, "    \"cross_posts\": %llu,\n",
                   static_cast<unsigned long long>(conductor_.cross_posts));
      std::fprintf(f, "    \"drained_posts\": %llu,\n",
                   static_cast<unsigned long long>(conductor_.drained_posts));
      std::fprintf(f, "    \"partition_ceiling\": %s,\n",
                   number(partition_ceiling()).c_str());
      write_u64_array(f, "idle_windows", conductor_.idle_windows, ",\n");
      write_u64_array(f, "barrier_wait_ns", conductor_.barrier_wait_ns, "\n");
      std::fprintf(f, "  },\n");
    }
    std::fprintf(f, "  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %s",
                   m.name.c_str(), number(m.value).c_str());
      if (!std::isnan(m.target)) {
        std::fprintf(f, ", \"paper_target\": %s", number(m.target).c_str());
        if (m.target != 0.0) {
          std::fprintf(f, ", \"deviation_pct\": %s",
                       number(100.0 * (m.value - m.target) / m.target).c_str());
        }
      }
      std::fprintf(f, "}%s\n", i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "warning: cannot rename %s -> %s\n", tmp.c_str(),
                   path.c_str());
      std::remove(tmp.c_str());
      return;
    }
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    double target = std::nan("");
  };

  /// Best possible parallel speedup of this partition: total events over
  /// the busiest shard's (an ideal conductor cannot beat it).  Reporting
  /// only; NaN (written as null) when no events were recorded.
  [[nodiscard]] double partition_ceiling() const {
    std::uint64_t total = 0, busiest = 0;
    for (const std::uint64_t e : per_shard_events_) {
      total += e;
      busiest = e > busiest ? e : busiest;
    }
    return busiest == 0 ? std::nan("")
                        : static_cast<double>(total) /
                              static_cast<double>(busiest);
  }

  static void write_u64_array(std::FILE* f, const char* key,
                              const std::vector<std::uint64_t>& values,
                              const char* trailer) {
    std::fprintf(f, "    \"%s\": [", key);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f, "%s%llu", i ? ", " : "",
                   static_cast<unsigned long long>(values[i]));
    }
    std::fprintf(f, "]%s", trailer);
  }

  /// JSON has no NaN/Inf literals; clamp those to null.
  static std::string number(double v) {
    if (std::isnan(v) || std::isinf(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }

  std::string name_;
  std::uint64_t seed_;
  int shards_ = 1;
  unsigned worker_threads_ = 1;
  std::vector<std::uint64_t> per_shard_events_;
  sim::ConductorStats conductor_;
  bool have_conductor_ = false;
  std::vector<Metric> metrics_;
  bool written_ = false;
};

}  // namespace nestv::bench
