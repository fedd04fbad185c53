// Multi-machine macro scenario: live traffic on the Google-trace
// population across a sharded datacenter.
//
// The fig 9 cost study uses the synthetic Google trace only for
// bin-packing; this scenario puts real datapath traffic on that
// population.  A fabric of `machines` PhysicalMachines (each its own
// Testbed, pinned to a conductor shard) carries three kinds of flows,
// chosen round-robin over the trace's placed VMs:
//   * NAT     — a published-port container, dialed cross-machine through
//               the fabric and DNAT (TCP stream);
//   * BrFusion — a pod NIC directly on the host bridge, reached
//               cross-machine by subnet route (UDP request/response);
//   * Hostlo  — a cross-VM pod on one machine, traffic over the modified
//               loopback TAP (UDP request/response; Hostlo cannot span
//               machines by construction).
// Flows drive themselves with callback chains (no Netperf: nothing may
// run an engine behind the conductor's back) and carry per-flow jittered
// think times and message sizes, so the traffic mix is irregular like a
// real tenant population.  Same-nanosecond frame collisions at shared
// devices still happen at this scale; the keyed wire-delivery order
// (Device::connect_wire, DESIGN.md section 10) is what keeps shards=1
// and shards=N bit-identical — the property bench/abl_sharding gates.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/testbed.hpp"
#include "sim/sharded_conductor.hpp"

namespace nestv::scenario {

struct DatacenterMacroConfig {
  std::uint64_t seed = 7;
  int machines = 8;
  /// Conductor shards; machines spread evenly over them.  1 = the plain
  /// single-engine run every other value must reproduce bit-for-bit.
  int shards = 1;
  /// Worker-thread cap for the conductor (0 = hardware concurrency).
  unsigned max_workers = 0;
  /// Google-trace users scheduled (bin-packed) to size the population.
  int trace_users = 48;
  /// Live flows instantiated on the placement.
  int flows = 24;
  std::uint32_t rr_bytes = 256;
  std::uint32_t stream_msg_bytes = 4096;
  sim::Duration measure_window = sim::milliseconds(200);
  sim::CostModel costs = {};
};

/// The sim::ConductorStats base carries the conductor's epoch-loop
/// counters (execution shape, like the fields at the end).
struct DatacenterMacroResult : sim::ConductorStats {
  // ---- simulated outputs: identical for every shards/max_workers ------
  double rr_transactions = 0;
  double rr_latency_ns_sum = 0;
  double stream_bytes_delivered = 0;
  /// Flow-order-weighted digest of the per-flow results; any reordering
  /// or divergence between runs shows up here even if the sums collide.
  double flow_digest = 0;
  double pods_scheduled = 0;
  double vms_bought = 0;
  double placement_cost_per_hour = 0;
  std::uint64_t events_total = 0;

  // ---- execution shape: reporting only, varies with shards/workers ----
  int shards = 1;
  unsigned worker_threads = 1;
  std::vector<std::uint64_t> per_shard_events;
  double wall_seconds = 0;  ///< host wall clock of the traffic phase
};

[[nodiscard]] DatacenterMacroResult run_datacenter_macro(
    const DatacenterMacroConfig& config);

}  // namespace nestv::scenario
