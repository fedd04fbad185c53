// Epoch-loop counters of sim::ShardedConductor, in their own header so
// bench reports can carry them without pulling in the conductor.
#pragma once

#include <cstdint>
#include <vector>

namespace nestv::sim {

/// Execution counters for one conductor lifetime, for bench reports.  All
/// fields except barrier_wait_ns are deterministic for a given world and
/// shard count (worker-count independent): windows are computed from the
/// published next-event times, which the determinism contract fixes.
struct ConductorStats {
  /// Synchronization windows executed across all run_until calls.
  std::uint64_t epochs = 0;
  /// Epochs with no cross-shard posts anywhere: publish and drain fused
  /// into a single barrier.
  std::uint64_t fused_epochs = 0;
  /// Frames mailed across shard boundaries.
  std::uint64_t cross_posts = 0;
  /// Mail moved from boxes into destination queues (== cross_posts once
  /// the run is quiesced).
  std::uint64_t drained_posts = 0;
  /// Per-shard count of windows in which the shard executed no events.
  std::vector<std::uint64_t> idle_windows;
  /// Per-worker wall nanoseconds spent inside barrier waits.
  std::vector<std::uint64_t> barrier_wait_ns;
};

}  // namespace nestv::sim
