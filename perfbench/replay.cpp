#include "replay.hpp"

#include <chrono>
#include <cstdint>
#include <memory>

#include "net/conn_table.hpp"
#include "net/flowcache/flowcache.hpp"
#include "net/oncache.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace nestv;
using Clock = std::chrono::steady_clock;

namespace {

// Calls per timed loop: enough to amortize the clock reads and to sweep
// every table of a macro-sized shape several times.
constexpr std::size_t kCalls = 400000;

double ns_per(Clock::time_point t0, Clock::time_point t1, std::size_t n) {
  return n == 0 ? 0.0
                : std::chrono::duration<double, std::nano>(t1 - t0).count() /
                      static_cast<double>(n);
}

/// A distinct 5-tuple per (table, entry): tables never share keys, and
/// keys spread over the hash space like real client ports do.
net::ConnKey conn_key(std::size_t table, std::size_t i) {
  net::ConnKey k;
  k.src_ip = net::Ipv4Address(0x0a000000u + static_cast<std::uint32_t>(i));
  k.dst_ip = net::Ipv4Address(0xac100000u + static_cast<std::uint32_t>(table));
  k.src_port = static_cast<std::uint16_t>(32768 + i % 28000);
  k.dst_port = 5000;
  k.proto = net::L4Proto::kUdp;
  return k;
}

net::flowcache::FlowKey flow_key(std::size_t table, std::size_t i) {
  const net::ConnKey c = conn_key(table, i);
  return net::flowcache::FlowKey{c.src_ip,   c.dst_ip, c.src_port,
                                 c.dst_port, c.proto,  1};
}

net::oncache::IngressKey ingress_key(std::size_t table, std::size_t i) {
  const net::ConnKey c = conn_key(table, i);
  return net::oncache::IngressKey{c.src_ip,   c.dst_ip,   100,
                                  c.src_port, c.dst_port, c.proto};
}

/// Random table order for one sweep of `calls` operations.
std::vector<std::uint32_t> table_order(std::size_t tables, std::size_t calls) {
  sim::Rng rng(7);
  std::vector<std::uint32_t> order(calls);
  for (auto& t : order) {
    t = static_cast<std::uint32_t>(rng.uniform_int(0, tables - 1));
  }
  return order;
}

}  // namespace

double replay_event_queue(std::size_t depth) {
  if (depth == 0) depth = 1;
  sim::EventQueue q;
  sim::Rng rng(11);
  // Inter-event gaps drawn from a fixed range keep the pending set at
  // `depth` while times advance, as in a steady-state run.
  const std::uint64_t spread = 1000 * depth;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(sim::TimePoint(rng.uniform_int(0, spread)), [] {});
  }
  std::vector<std::uint64_t> gaps(4096);
  for (auto& g : gaps) g = rng.uniform_int(1, spread);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const sim::TimePoint now = q.pop_and_run();
    q.schedule(now + sim::TimePoint(gaps[i & 4095]), [] {});
  }
  return ns_per(t0, Clock::now(), kCalls);
}

double replay_route(const net::RoutingTable& table,
                    const std::vector<net::Ipv4Address>& dsts) {
  if (dsts.empty()) return 0.0;
  std::size_t hits = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    hits += table.lookup(dsts[i % dsts.size()]).has_value();
  }
  const auto t1 = Clock::now();
  if (hits != kCalls) std::abort();  // every replayed destination routes
  return ns_per(t0, t1, kCalls);
}

double replay_netfilter(net::Netfilter& nf, const net::Packet& shape,
                        const std::vector<HookStep>& hooks) {
  if (hooks.empty()) return 0.0;
  const std::size_t walks = kCalls / hooks.size();
  sim::TimePoint now = 0;
  const auto t0 = Clock::now();
  for (std::size_t w = 0; w < walks; ++w) {
    net::Packet p = shape;  // DNAT rewrites the packet in place
    now += 1000;
    for (const HookStep& h : hooks) {
      (void)nf.run_hook(h.hook, p, h.in, h.out, now);
    }
  }
  return ns_per(t0, Clock::now(), walks * hooks.size());
}

ConntrackReplay replay_conntrack(TableShape shape) {
  ConntrackReplay r;
  if (shape.per_table == 0) return r;
  std::vector<net::ConnTable> tables(shape.tables);
  std::vector<std::vector<std::uint64_t>> ids(shape.tables);
  for (std::size_t t = 0; t < shape.tables; ++t) {
    for (std::size_t i = 0; i < shape.per_table; ++i) {
      net::ConnEntry e;
      e.orig = conn_key(t, i);
      ids[t].push_back(tables[t].create(e).id);
    }
  }
  const auto order = table_order(shape.tables, kCalls);
  sim::Rng rng(13);
  std::size_t found = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::uint32_t t = order[i];
    found += static_cast<bool>(
        tables[t].find(conn_key(t, i % shape.per_table)));
  }
  auto t1 = Clock::now();
  if (found != kCalls) std::abort();  // every probed key is live
  r.find_ns = ns_per(t0, t1, kCalls);

  // Churn at constant population: each call erases a table's oldest entry
  // and creates a fresh one, as GC reaping and new flows do.
  std::vector<std::size_t> next(shape.tables, shape.per_table);
  std::vector<std::size_t> oldest(shape.tables, 0);
  double create_total = 0;
  double erase_total = 0;
  const std::size_t churn = kCalls / 4;
  for (std::size_t i = 0; i < churn; ++i) {
    const std::uint32_t t = order[i];
    const auto a = Clock::now();
    tables[t].erase(ids[t][oldest[t]]);
    const auto b = Clock::now();
    net::ConnEntry e;
    e.orig = conn_key(t, next[t]);
    ids[t][oldest[t]] = tables[t].create(e).id;
    const auto c = Clock::now();
    oldest[t] = (oldest[t] + 1) % shape.per_table;
    ++next[t];
    erase_total += std::chrono::duration<double, std::nano>(b - a).count();
    create_total += std::chrono::duration<double, std::nano>(c - b).count();
  }
  r.erase_ns = erase_total / static_cast<double>(churn);
  r.create_ns = create_total / static_cast<double>(churn);
  return r;
}

FlowcacheReplay replay_flowcache(TableShape shape) {
  FlowcacheReplay r;
  if (shape.per_table == 0) return r;
  std::vector<std::unique_ptr<net::flowcache::FlowCache>> caches;
  for (std::size_t t = 0; t < shape.tables; ++t) {
    caches.push_back(std::make_unique<net::flowcache::FlowCache>(
        std::max<std::size_t>(4096, shape.per_table)));
    for (std::size_t i = 0; i < shape.per_table; ++i) {
      net::flowcache::CachedPath path;
      path.ct_id = i + 1;
      caches[t]->insert(flow_key(t, i), path);
    }
  }
  const auto order = table_order(shape.tables, kCalls);
  std::size_t hits = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::uint32_t t = order[i];
    hits += caches[t]->lookup(flow_key(t, i % shape.per_table)) != nullptr;
  }
  auto t1 = Clock::now();
  if (hits != kCalls) std::abort();
  r.lookup_ns = ns_per(t0, t1, kCalls);

  // Replace-in-place inserts keep the population fixed.
  t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::uint32_t t = order[i];
    net::flowcache::CachedPath path;
    path.ct_id = i % shape.per_table + 1;
    caches[t]->insert(flow_key(t, i % shape.per_table), path);
  }
  t1 = Clock::now();
  r.insert_ns = ns_per(t0, t1, kCalls);

  // invalidate_conn scans its table; re-insert the flushed entry (untimed)
  // so every call sees the same population.
  const std::size_t inval = std::min<std::size_t>(kCalls / 16, 20000);
  double total = 0;
  for (std::size_t i = 0; i < inval; ++i) {
    const std::uint32_t t = order[i];
    const std::size_t e = i % shape.per_table;
    const auto a = Clock::now();
    (void)caches[t]->invalidate_conn(e + 1);
    total += std::chrono::duration<double, std::nano>(Clock::now() - a).count();
    net::flowcache::CachedPath path;
    path.ct_id = e + 1;
    caches[t]->insert(flow_key(t, e), path);
  }
  r.invalidate_conn_ns = total / static_cast<double>(inval);
  return r;
}

double replay_oncache_lookup(TableShape shape) {
  if (shape.per_table == 0) return 0.0;
  using Cache = net::oncache::SlabCache<net::oncache::IngressKey,
                                        net::oncache::IngressPath,
                                        net::oncache::IngressKeyHash>;
  std::vector<std::unique_ptr<Cache>> caches;
  for (std::size_t t = 0; t < shape.tables; ++t) {
    caches.push_back(
        std::make_unique<Cache>(std::max<std::size_t>(4096, shape.per_table)));
    for (std::size_t i = 0; i < shape.per_table; ++i) {
      caches[t]->insert(ingress_key(t, i), net::oncache::IngressPath{});
    }
  }
  const auto order = table_order(shape.tables, kCalls);
  std::size_t hits = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::uint32_t t = order[i];
    hits += caches[t]->lookup(ingress_key(t, i % shape.per_table)) != nullptr;
  }
  const auto t1 = Clock::now();
  if (hits != kCalls) std::abort();
  return ns_per(t0, t1, kCalls);
}

}  // namespace perfbench
