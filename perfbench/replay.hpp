// Layer replays for the traced run: each one drives a layer's public
// functions in a tight loop at a population or depth taken from the run
// it explains, and returns wall nanoseconds per call.  A replay multiplied
// by the run's own call count estimates that layer's share of run_s.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/netfilter.hpp"
#include "net/packet.hpp"
#include "net/route.hpp"

namespace perfbench {

/// One schedule + pop of the event queue at a steady `depth` of pending
/// events.
[[nodiscard]] double replay_event_queue(std::size_t depth);

/// RoutingTable::lookup over `dsts`, round robin.
[[nodiscard]] double replay_route(const nestv::net::RoutingTable& table,
                                  const std::vector<nestv::net::Ipv4Address>&
                                      dsts);

/// One packet's walk through `hooks` of a live Netfilter instance (its
/// real chains and conntrack); returns ns per run_hook call.
struct HookStep {
  nestv::net::Hook hook;
  std::string in;
  std::string out;
};
[[nodiscard]] double replay_netfilter(nestv::net::Netfilter& nf,
                                      const nestv::net::Packet& shape,
                                      const std::vector<HookStep>& hooks);

/// Conntrack, flowcache and overlay-cache tables: `tables` tables of
/// `per_table` live entries each, touched in random table order so the
/// working set matches a run holding that many entries in that many
/// stacks.
struct TableShape {
  std::size_t tables = 1;
  std::size_t per_table = 0;
};

struct ConntrackReplay {
  double find_ns = 0;
  double create_ns = 0;
  double erase_ns = 0;
};
[[nodiscard]] ConntrackReplay replay_conntrack(TableShape shape);

struct FlowcacheReplay {
  double lookup_ns = 0;
  double insert_ns = 0;
  double invalidate_conn_ns = 0;
};
[[nodiscard]] FlowcacheReplay replay_flowcache(TableShape shape);

[[nodiscard]] double replay_oncache_lookup(TableShape shape);

}  // namespace perfbench
