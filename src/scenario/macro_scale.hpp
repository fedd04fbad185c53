// Macro-scale datacenter scenario: flow churn on a hierarchical fabric.
//
// datacenter_macro (scenario/datacenter_macro.hpp) runs a fixed set of
// long-lived flows on a flat ToR — the steady-state picture.  This
// scenario models the part a real datacenter adds on top: *churn*.  A
// population of machines under a two-tier fabric (vmm::HierarchicalFabric,
// racks -> ToRs -> spines with deterministic per-flow ECMP) carries an
// open-loop stream of short-lived flows: each arrives at a precomputed
// instant (independent of completions — open loop), runs a handful of
// UDP request/response transactions from a fresh client port against a
// long-lived server pod, and departs.  Every arrival inserts conntrack
// entries (and flowcache entries — the fast path is on) at each stack on
// its path; every departure leaves them to idle out under periodic
// conntrack GC.  That insert/evict pressure at 10^5..10^6 flows is what
// the compact per-flow state (net/conn_table.hpp, the slab FlowCache) is
// for, and this scenario measures it: bytes of conntrack+flowcache state
// per tracked flow at peak occupancy is a first-class output.
//
// Server pods follow the paper's deployment modes, chosen per flow:
//   * NAT      — published-port container behind DNAT (UDP RR cross-rack),
//                plus a few long-lived TCP streams through the same path;
//   * BrFusion — pod NIC on the host bridge (UDP RR cross-rack);
//   * Hostlo   — cross-VM pod on one machine (UDP RR, intra-host by
//                construction);
//   * Overlay  — cross-VM pod pair tunneled through a per-pair VXLAN
//                overlay (UDP RR, VM-to-VM through the host bridge),
//                riding the ONCache-style encap/decap fast path when
//                oncache_enabled (off by default: the knob defaults to
//                zero pairs, leaving the run byte-identical).
// Placement follows the Google-like trace, as in datacenter_macro.
//
// Determinism: identical simulated outputs at any shards/max_workers
// (bench/abl_macro_scale gates shards=16 == shards=1 with delta 0).  The
// three mechanisms are the keyed wire delivery order, the flow-pure ECMP
// hash, and strictly machine-local mutable state (per-machine accumulators
// merged in machine order after the run).
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/testbed.hpp"
#include "sim/sharded_conductor.hpp"

namespace nestv::scenario {

struct MacroScaleConfig {
  std::uint64_t seed = 11;
  int machines = 8;
  /// Conductor shards; 1 = the single-engine reference every other value
  /// must reproduce bit-for-bit.
  int shards = 1;
  unsigned max_workers = 0;

  // ---- fabric shape ----------------------------------------------------
  int machines_per_rack = 4;
  int spines = 2;

  // ---- population ------------------------------------------------------
  int trace_users = 32;
  /// Long-lived server pods per machine, alternating NAT / BrFusion
  /// (must be >= 2 so both modes exist everywhere).
  int server_pods_per_machine = 2;
  /// Cross-VM Hostlo pods per machine (0 disables the Hostlo flow mode).
  int hostlo_pairs_per_machine = 1;
  /// Cross-VM overlay (VXLAN) pod pairs per machine.  0 disables the
  /// overlay flow mode entirely and keeps the run byte-identical to the
  /// pre-overlay scenario.
  int overlay_pairs_per_machine = 0;
  /// Drive overlay pairs through the ONCache-style encap/decap fast path
  /// (ignored when overlay_pairs_per_machine == 0).
  bool oncache_enabled = true;

  // ---- churn -----------------------------------------------------------
  /// Ephemeral flows arriving open-loop over `arrival_window`.
  int flows = 2000;
  /// Mean request/response transactions per flow (jittered per flow).
  int flow_transactions = 3;
  std::uint32_t rr_bytes = 256;
  /// Long-lived NAT TCP streams riding along (bulk bytes under churn).
  int tcp_streams = 2;
  std::uint32_t stream_msg_bytes = 4096;

  sim::Duration arrival_window = sim::milliseconds(150);
  /// Extra time after the last arrival for in-flight flows to finish.
  sim::Duration drain = sim::milliseconds(50);
  /// Per-machine conntrack GC + state-sampling cadence.
  sim::Duration gc_interval = sim::milliseconds(20);
  /// Idle timeout handed to conntrack GC (well below arrival_window, so
  /// departed flows are actually reaped while the run is still going).
  sim::Duration conntrack_idle = sim::milliseconds(40);

  sim::CostModel costs = {};
};

/// The sim::ConductorStats base carries the conductor's epoch-loop
/// counters (execution shape, like the fields at the end).
struct MacroScaleResult : sim::ConductorStats {
  // ---- simulated outputs: identical for every shards/max_workers ------
  double flows_completed = 0;
  double rr_transactions = 0;
  double rr_latency_ns_sum = 0;
  double stream_bytes_delivered = 0;
  /// Flow-order-weighted digest; any divergence between execution modes
  /// shows up here even if the sums collide.
  double flow_digest = 0;
  /// Peak simultaneously-live ephemeral flows (computed from the exact
  /// arrival/completion instants after the run).
  std::uint64_t peak_concurrent_flows = 0;
  /// Sum over machines of each machine's peak tracked conntrack entries
  /// (host + server VM + pod stacks, sampled at every GC tick).
  std::uint64_t conntrack_peak_entries = 0;
  /// Conntrack + flowcache resident bytes at those per-machine peaks.
  std::uint64_t state_bytes_at_peak = 0;
  /// Decomposition of state_bytes_at_peak (same sampling instants).
  std::uint64_t conntrack_bytes_at_peak = 0;
  std::uint64_t flowcache_bytes_at_peak = 0;
  /// Live flowcache entries at those peaks (cached paths are
  /// per-direction, so this can exceed conntrack_peak_entries).
  std::uint64_t flowcache_entries_at_peak = 0;
  /// Overlay encap/decap cache state at each machine's own oncache
  /// occupancy peak (sampled at the same GC ticks; all zero when
  /// overlay_pairs_per_machine == 0 or the fast path is off).
  std::uint64_t oncache_entries_at_peak = 0;
  std::uint64_t oncache_bytes_at_peak = 0;
  /// Total encap + decap fast-path hits across all overlay caches.
  std::uint64_t oncache_hits = 0;
  /// state_bytes_at_peak / conntrack_peak_entries: bytes of per-flow
  /// state per tracked flow (the compact-state headline metric).
  double state_bytes_per_flow = 0;
  /// Entries reaped by periodic conntrack GC across all machines.
  std::uint64_t conntrack_gc_reaped = 0;
  double pods_scheduled = 0;
  double vms_bought = 0;
  double placement_cost_per_hour = 0;
  std::uint64_t events_total = 0;

  // ---- execution shape: reporting only, varies with shards/workers ----
  int shards = 1;
  unsigned worker_threads = 1;
  std::vector<std::uint64_t> per_shard_events;
  double wall_seconds = 0;
};

[[nodiscard]] MacroScaleResult run_macro_scale(const MacroScaleConfig& config);

}  // namespace nestv::scenario
