// Benchmark driver: one measured repetition of one workload per process.
//
//   perfbench_untraced kind=nat_stream seed=42 warmup_ms=20 stream_ms=1500
//   perfbench_traced   kind=macro seed=42 machines=200 ... shards=4
//
// Every argument is key=value; unknown keys, missing keys and malformed
// numbers exit 2.  The workload shape comes entirely from the arguments
// (perfbench/run.py derives it from the benchmark seed).  The driver
// prints one JSON object: the simulated outputs (checked against pins by
// run.py), wall and CPU timings of the phases, the process high-water
// RSS, and every public layer counter the run exposes.  The traced build
// (PERFBENCH_TRACED) also counts heap allocations and replays each layer
// at the run's own population (replay.hpp); the untraced build does
// neither, so its timings carry no instrumentation.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/packet_pool.hpp"
#include "replay.hpp"
#include "scenario/macro_scale.hpp"
#include "scenario/single_server.hpp"
#include "sim/cpu.hpp"
#include "workload/netperf.hpp"

#ifdef PERFBENCH_TRACED
#include "alloc_count.hpp"
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

namespace {

using namespace nestv;
using Clock = std::chrono::steady_clock;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench driver: %s\n", msg.c_str());
  std::exit(2);
}

/// key=value arguments, each consumed at most once; leftovers are errors.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* eq = std::strchr(argv[i], '=');
      if (eq == nullptr || eq == argv[i]) {
        usage_error(std::string("expected key=value, got '") + argv[i] + "'");
      }
      const std::string key(argv[i], static_cast<std::size_t>(eq - argv[i]));
      if (!kv_.emplace(key, eq + 1).second) {
        usage_error("duplicate argument '" + key + "'");
      }
    }
  }

  std::string text(const std::string& key) {
    const auto it = kv_.find(key);
    if (it == kv_.end()) usage_error("missing argument '" + key + "'");
    std::string v = it->second;
    kv_.erase(it);
    return v;
  }

  std::uint64_t u64(const std::string& key) {
    const std::string v = text(key);
    std::uint64_t out = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (v.empty() || ec != std::errc{} || end != v.data() + v.size()) {
      usage_error("'" + key + "' is not an unsigned integer: '" + v + "'");
    }
    return out;
  }

  int i32(const std::string& key) {
    const std::uint64_t v = u64(key);
    if (v > 1000000000) usage_error("'" + key + "' out of range");
    return static_cast<int>(v);
  }

  void expect_consumed() const {
    if (!kv_.empty()) {
      usage_error("unknown argument '" + kv_.begin()->first + "'");
    }
  }

 private:
  std::map<std::string, std::string> kv_;
};

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// High-water RSS of this process image.  VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the parent's footprint before the
/// fork does not leak into it.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Flat JSON object builder; numbers keep all 17 significant digits so
/// pinned outputs compare exactly after a round trip.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.text());
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
    return *this;
  }
  std::string body_;
};

double d(std::uint64_t v) { return static_cast<double>(v); }

/// The traced run's spans: one per call the driver makes into a layer,
/// keyed by name, with the span that contains it and its start and end in
/// nanoseconds since the repetition began.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void add(const std::string& name, const std::string& parent,
           Clock::time_point start, Clock::time_point end) {
    JsonObject span;
    span.str("parent", parent)
        .num("start_ns", ns(start))
        .num("end_ns", ns(end));
    spans_.obj(name, span);
  }

  /// Runs one layer replay as a child of the "replay" span.
  template <typename Fn>
  auto replay(const std::string& name, Fn&& fn) {
    const auto start = Clock::now();
    auto result = fn();
    add("replay." + name, "replay", start, Clock::now());
    return result;
  }

  [[nodiscard]] const JsonObject& json() const { return spans_; }

 private:
  [[nodiscard]] double ns(Clock::time_point t) const {
    return std::chrono::duration<double, std::nano>(t - origin_).count();
  }
  Clock::time_point origin_;
  JsonObject spans_;
};

// ---- nat_stream ------------------------------------------------------------

/// Public counters of every layer on the NAT path, summed where a layer
/// has several instances.  Taken before and after the measured window.
struct NatCounters {
  std::uint64_t events = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t hook_traversals = 0;
  std::uint64_t routed_packets = 0;  // forwarded + delivered, all stacks
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t frames_cloned = 0;
  std::uint64_t bridge_forwarded = 0;
  std::uint64_t bridge_floods = 0;
  std::uint64_t virtio_tx_frames = 0;
  std::uint64_t virtio_tx_kicks = 0;
  std::uint64_t virtio_rx_polls = 0;
  sim::Duration soft_host_ns = 0;
  sim::Duration soft_guest_ns = 0;
  sim::Duration guest_ns = 0;
};

std::vector<net::StackBackend*> nat_stacks(scenario::SingleServer& s) {
  std::vector<net::StackBackend*> stacks{&s.bed->machine().stack(),
                                         &s.vm->stack()};
  for (auto& frag : s.pod->fragments()) stacks.push_back(frag->stack.get());
  return stacks;
}

NatCounters read_counters(scenario::SingleServer& s) {
  NatCounters c;
  auto& engine = s.bed->engine();
  c.events = engine.events_executed();
  c.coalesced = engine.events_coalesced();
  for (net::StackBackend* st : nat_stacks(s)) {
    if (st->has_netfilter()) {
      c.hook_traversals += st->netfilter().hook_traversals();
    }
    c.routed_packets += st->packets_forwarded() + st->packets_delivered();
  }
  auto& pool = net::PacketPool::local();
  c.pool_fresh = pool.fresh_allocs();
  c.pool_reuses = pool.reuses();
  c.frames_cloned = net::PacketPool::frames_cloned();
  c.bridge_forwarded = s.bed->machine().bridge().frames_forwarded();
  c.bridge_floods = s.bed->machine().bridge().floods();
  for (const auto& nic : s.vm->nics()) {
    c.virtio_tx_frames += nic->tx_frames();
    c.virtio_tx_kicks += nic->tx_kicks();
    c.virtio_rx_polls += nic->rx_polls();
  }
  for (const sim::CpuAccount* a : s.bed->machine().ledger().accounts()) {
    const bool guest_side = a->name().rfind("vm/", 0) == 0;
    (guest_side ? c.soft_guest_ns : c.soft_host_ns) +=
        a->get(sim::CpuCategory::kSoft);
    c.guest_ns += a->get(sim::CpuCategory::kGuest);
  }
  return c;
}

std::string run_nat_stream(Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const auto warmup = sim::milliseconds(args.u64("warmup_ms"));
  const auto stream = sim::milliseconds(args.u64("stream_ms"));
  const auto msg_bytes = static_cast<std::uint32_t>(args.u64("msg_bytes"));
  const auto rr_bytes = static_cast<std::uint32_t>(args.u64("rr_bytes"));
  args.expect_consumed();
  constexpr std::uint16_t kPort = 5001;

  const auto t0 = Clock::now();
  scenario::TestbedConfig config;
  config.seed = seed;
  std::optional<scenario::SingleServer> s(
      scenario::make_single_server(scenario::ServerMode::kNat, kPort, config));
  auto& engine = s->bed->engine();
  std::optional<workload::Netperf> np(std::in_place, engine, s->client,
                                      s->server, kPort);
  const auto t1 = Clock::now();
  const auto rr = np->run_udp_rr(rr_bytes, warmup);
  const auto t2 = Clock::now();

  // Traced only: sample the event-queue depth over the stream with a
  // self-rescheduling probe.  The probe touches no simulated state; its
  // own events are subtracted from the counts below.
  std::uint64_t probes = 0;
  double depth_sum = 0;
  if (kTraced) {
    const sim::TimePoint end = engine.now() + stream;
    struct Probe {
      sim::Engine* engine;
      sim::TimePoint end;
      std::uint64_t* probes;
      double* depth_sum;
      void operator()() const {
        ++*probes;
        *depth_sum += static_cast<double>(engine->pending_events());
        const sim::TimePoint next = engine->now() + sim::microseconds(200);
        if (next < end) engine->schedule_at(next, Probe(*this));
      }
    };
    engine.schedule_at(engine.now() + sim::microseconds(100),
                       Probe{&engine, end, &probes, &depth_sum});
  }

  const NatCounters before = read_counters(*s);
#ifdef PERFBENCH_TRACED
  perfbench::alloc_count_arm(true);
#endif
  const double cpu0 = cpu_seconds();
  const auto t3 = Clock::now();
  const auto st = np->run_tcp_stream(msg_bytes, stream);
  const auto t4 = Clock::now();
  const double cpu1 = cpu_seconds();
#ifdef PERFBENCH_TRACED
  perfbench::alloc_count_arm(false);
  const std::uint64_t heap_allocs = perfbench::alloc_count();
#else
  const std::uint64_t heap_allocs = 0;
#endif
  const NatCounters after = read_counters(*s);
  const std::uint64_t events = after.events - before.events - probes;
  const std::uint64_t packets =
      (st.bytes_delivered + msg_bytes - 1) / msg_bytes;

  JsonObject outputs;
  outputs.num("stream_bytes", d(st.bytes_delivered))
      .num("rr_transactions", d(rr.transactions))
      .num("events_total", d(after.events - probes))
      .num("retransmits", d(st.retransmits));

  std::size_t ct_entries = 0;
  std::size_t ct_tables = 0;
  for (net::StackBackend* stk : nat_stacks(*s)) {
    if (!stk->has_netfilter()) continue;
    ct_entries += stk->netfilter().conntrack_size();
    ++ct_tables;
  }

  const auto per_packet = [packets](sim::Duration ns) {
    return packets ? static_cast<double>(ns) / static_cast<double>(packets)
                   : 0.0;
  };
  JsonObject counters;
  counters.num("events", d(events))
      .num("events_coalesced", d(after.coalesced - before.coalesced))
      .num("packets", d(packets))
      .num("hook_traversals", d(after.hook_traversals - before.hook_traversals))
      .num("routed_packets", d(after.routed_packets - before.routed_packets))
      .num("conntrack_entries", d(ct_entries))
      .num("pool_fresh_allocs", d(after.pool_fresh - before.pool_fresh))
      .num("pool_reuses", d(after.pool_reuses - before.pool_reuses))
      .num("frames_cloned", d(after.frames_cloned - before.frames_cloned))
      .num("tcp_retransmits", d(st.retransmits))
      .num("bridge_frames_forwarded",
           d(after.bridge_forwarded - before.bridge_forwarded))
      .num("bridge_floods", d(after.bridge_floods - before.bridge_floods))
      .num("virtio_tx_frames",
           d(after.virtio_tx_frames - before.virtio_tx_frames))
      .num("virtio_tx_kicks", d(after.virtio_tx_kicks - before.virtio_tx_kicks))
      .num("virtio_rx_polls", d(after.virtio_rx_polls - before.virtio_rx_polls))
      .num("sim_soft_ns_per_packet_host",
           per_packet(after.soft_host_ns - before.soft_host_ns))
      .num("sim_soft_ns_per_packet_guest",
           per_packet(after.soft_guest_ns - before.soft_guest_ns))
      .num("sim_guest_ns_per_packet",
           per_packet(after.guest_ns - before.guest_ns))
      .num("heap_allocs", d(heap_allocs));

  JsonObject replay;
  SpanLog spans(t0);
  const auto r0 = Clock::now();
  if (kTraced) {
    const double depth = probes ? depth_sum / static_cast<double>(probes) : 0;
    // The guest is where the NAT path forwards: client -> eth0 ->
    // PREROUTING (DNAT) -> FORWARD -> POSTROUTING -> docker0 -> pod.
    net::Packet shape;
    shape.src_ip = s->client.local_ip;
    shape.dst_ip = s->server.service_ip;
    shape.proto = net::L4Proto::kTcp;
    shape.src_port = 40000;
    shape.dst_port = kPort;
    shape.tcp_flags.ack = true;
    shape.payload_bytes = msg_bytes;
    auto& guest = s->vm->stack();
    const double hook_ns = spans.replay("netfilter", [&] {
      return perfbench::replay_netfilter(
          guest.netfilter(), shape,
          {{net::Hook::kPrerouting, "eth0", ""},
           {net::Hook::kForward, "eth0", "docker0"},
           {net::Hook::kPostrouting, "", "docker0"}});
    });
    const double route_ns = spans.replay("route", [&] {
      return perfbench::replay_route(
          guest.routes(), {s->client.local_ip, s->server.local_ip,
                           s->server.service_ip});
    });
    const perfbench::TableShape ct_shape{
        ct_tables, ct_tables ? std::max<std::size_t>(1, ct_entries / ct_tables)
                             : 0};
    const auto ct = spans.replay(
        "conntrack", [&] { return perfbench::replay_conntrack(ct_shape); });
    const double queue_ns = spans.replay("event_queue", [&] {
      return perfbench::replay_event_queue(static_cast<std::size_t>(depth));
    });
    replay.num("event_queue_depth", depth)
        .num("schedule_pop_ns", queue_ns)
        .num("run_hook_ns", hook_ns)
        .num("route_lookup_ns", route_ns)
        .num("conntrack_tables", d(ct_shape.tables))
        .num("conntrack_per_table", d(ct_shape.per_table))
        .num("conntrack_find_ns", ct.find_ns)
        .num("conntrack_create_ns", ct.create_ns)
        .num("conntrack_erase_ns", ct.erase_ns);
  }

  const auto r1 = Clock::now();
  np.reset();
  const auto t5 = Clock::now();
  s.reset();
  const auto t6 = Clock::now();
  if (kTraced) {
    spans.add("rep", "", t0, t6);
    spans.add("scenario.build", "rep", t0, t1);
    spans.add("workload.warmup", "rep", t1, t2);
    spans.add("workload.stream", "rep", t3, t4);
    spans.add("replay", "rep", r0, r1);
    spans.add("scenario.teardown", "rep", t5, t6);
  }

  JsonObject timing;
  timing.num("build_s", seconds(t0, t1))
      .num("warmup_s", seconds(t1, t2))
      .num("setup_s", seconds(t0, t2))
      .num("run_s", seconds(t3, t4))
      .num("cpu_s", cpu1 - cpu0)
      .num("teardown_s", seconds(t5, t6));

  JsonObject out;
  out.obj("outputs", outputs).obj("timing", timing).obj("counters", counters);
  if (kTraced) out.obj("replay", replay).obj("spans", spans.json());
  out.num("shards", 1).num("workers", 1);
  return out.text();
}

// ---- macro (churn, single engine or sharded) -------------------------------

std::string run_macro(Args& args) {
  scenario::MacroScaleConfig cfg;
  cfg.seed = args.u64("seed");
  cfg.machines = args.i32("machines");
  cfg.machines_per_rack = args.i32("machines_per_rack");
  cfg.spines = args.i32("spines");
  cfg.trace_users = args.i32("trace_users");
  cfg.flows = args.i32("flows");
  cfg.overlay_pairs_per_machine = args.i32("overlay_pairs");
  cfg.tcp_streams = args.i32("tcp_streams");
  cfg.arrival_window = sim::milliseconds(args.u64("arrival_ms"));
  cfg.drain = sim::milliseconds(args.u64("drain_ms"));
  cfg.conntrack_idle = sim::milliseconds(args.u64("idle_ms"));
  cfg.gc_interval = sim::milliseconds(args.u64("gc_ms"));
  cfg.shards = args.i32("shards");
  cfg.max_workers = static_cast<unsigned>(args.i32("workers"));
  args.expect_consumed();

  auto& pool = net::PacketPool::local();
  const std::uint64_t fresh0 = pool.fresh_allocs();
  const std::uint64_t reuses0 = pool.reuses();
  const std::uint64_t cloned0 = net::PacketPool::frames_cloned();
#ifdef PERFBENCH_TRACED
  perfbench::alloc_count_arm(true);
#endif
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  scenario::MacroScaleResult r;
  try {
    r = scenario::run_macro_scale(cfg);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
  const auto t1 = Clock::now();
  const double cpu1 = cpu_seconds();
#ifdef PERFBENCH_TRACED
  perfbench::alloc_count_arm(false);
  const std::int64_t last_alloc = perfbench::last_alloc_ns();
  const std::int64_t end_ns =
      t1.time_since_epoch() / std::chrono::nanoseconds(1);
  // Destructors free without allocating: the last allocation of the call
  // marks the end of the run's aggregation and the start of teardown.
  const double teardown_s =
      last_alloc > 0 ? 1e-9 * static_cast<double>(end_ns - last_alloc) : 0.0;
#else
  const double teardown_s = 0.0;
#endif

  const double call_s = seconds(t0, t1);
  const double run_s = r.wall_seconds;
  // The scenario times only its run window; build, deployment and
  // teardown together are the rest of the call.  They are single-threaded
  // but for the deployment's short sharded warmup, so the CPU outside the
  // window is charged at one core.
  const double setup_s = call_s - run_s;
  const double cpu_s = (cpu1 - cpu0) - setup_s;

  JsonObject outputs;
  outputs.num("flow_digest", r.flow_digest)
      .num("flows_completed", r.flows_completed)
      .num("rr_transactions", r.rr_transactions)
      .num("rr_latency_ns_sum", r.rr_latency_ns_sum)
      .num("stream_bytes", r.stream_bytes_delivered)
      .num("events_total", d(r.events_total))
      .num("state_bytes_at_peak", d(r.state_bytes_at_peak))
      .num("peak_concurrent_flows", d(r.peak_concurrent_flows))
      .num("conntrack_peak_entries", d(r.conntrack_peak_entries))
      .num("conntrack_gc_reaped", d(r.conntrack_gc_reaped))
      .num("flowcache_entries_at_peak", d(r.flowcache_entries_at_peak))
      .num("oncache_entries_at_peak", d(r.oncache_entries_at_peak))
      .num("oncache_hits", d(r.oncache_hits))
      .num("pods_scheduled", r.pods_scheduled)
      .num("vms_bought", r.vms_bought);

  std::uint64_t max_shard = 0;
  for (const std::uint64_t e : r.per_shard_events) {
    max_shard = std::max(max_shard, e);
  }
  std::uint64_t idle = 0;
  for (const std::uint64_t w : r.idle_windows) idle += w;
  std::uint64_t barrier_ns = 0;
  for (const std::uint64_t w : r.barrier_wait_ns) barrier_ns += w;

  JsonObject counters;
  counters.num("events", d(r.events_total))
      .num("max_shard_events", d(max_shard))
      .num("epochs", d(r.epochs))
      .num("fused_epochs", d(r.fused_epochs))
      .num("cross_posts", d(r.cross_posts))
      .num("idle_windows", d(idle))
      .num("barrier_wait_ns", d(barrier_ns))
      .num("conntrack_peak_entries", d(r.conntrack_peak_entries))
      .num("conntrack_gc_reaped", d(r.conntrack_gc_reaped))
      .num("flowcache_entries_at_peak", d(r.flowcache_entries_at_peak))
      .num("oncache_entries_at_peak", d(r.oncache_entries_at_peak))
      .num("oncache_hits", d(r.oncache_hits))
      .num("state_bytes_per_flow", r.state_bytes_per_flow)
      .num("pods_scheduled", r.pods_scheduled)
      .num("vms_bought", r.vms_bought)
      // Main-thread pools only: sharded workers keep their own.
      .num("pool_fresh_allocs", d(pool.fresh_allocs() - fresh0))
      .num("pool_reuses", d(pool.reuses() - reuses0))
      .num("frames_cloned", d(net::PacketPool::frames_cloned() - cloned0));

  JsonObject replay;
  SpanLog spans(t0);
  const auto r0 = Clock::now();
  if (kTraced) {
    // Per-flow state lives in the host stack plus each server VM and pod
    // stack of every machine (the stacks the scenario samples); overlay
    // caches live in both VMs of every overlay pair.
    const auto machines = std::size_t(cfg.machines);
    const std::size_t stacks =
        machines * (1 + 2 * std::size_t(cfg.server_pods_per_machine));
    const std::size_t ov_tables =
        machines * std::size_t(cfg.overlay_pairs_per_machine) * 2;
    const perfbench::TableShape ct_shape{stacks,
                                         r.conntrack_peak_entries / stacks};
    const perfbench::TableShape fc_shape{stacks,
                                         r.flowcache_entries_at_peak / stacks};
    const perfbench::TableShape oc_shape{
        std::max<std::size_t>(1, ov_tables),
        ov_tables ? r.oncache_entries_at_peak / ov_tables : 0};
    // The scenario keeps its engines private; each engine's pending set
    // holds about one event per live flow plus a pump and a GC tick per
    // machine, split across shards.
    const std::size_t depth =
        (r.peak_concurrent_flows + 2 * machines) /
        std::size_t(cfg.shards);
    const auto ct = spans.replay(
        "conntrack", [&] { return perfbench::replay_conntrack(ct_shape); });
    const auto fc = spans.replay(
        "flowcache", [&] { return perfbench::replay_flowcache(fc_shape); });
    const double oncache_ns = spans.replay("oncache", [&] {
      return perfbench::replay_oncache_lookup(oc_shape);
    });
    const double queue_ns = spans.replay(
        "event_queue", [&] { return perfbench::replay_event_queue(depth); });
    replay.num("event_queue_depth", d(depth))
        .num("schedule_pop_ns", queue_ns)
        .num("conntrack_tables", d(ct_shape.tables))
        .num("conntrack_per_table", d(ct_shape.per_table))
        .num("conntrack_find_ns", ct.find_ns)
        .num("conntrack_create_ns", ct.create_ns)
        .num("conntrack_erase_ns", ct.erase_ns)
        .num("flowcache_per_table", d(fc_shape.per_table))
        .num("flowcache_lookup_ns", fc.lookup_ns)
        .num("flowcache_insert_ns", fc.insert_ns)
        .num("flowcache_invalidate_conn_ns", fc.invalidate_conn_ns)
        .num("oncache_per_table", d(oc_shape.per_table))
        .num("oncache_lookup_ns", oncache_ns);
    // The scenario runs as one call; its own run-window timing and the
    // teardown estimate place the inner spans.
    const auto before_end = [t1](double s) {
      return t1 - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
    };
    const auto r1 = Clock::now();
    spans.add("rep", "", t0, r1);
    spans.add("scenario.run_macro_scale", "rep", t0, t1);
    spans.add("scenario.run_window", "scenario.run_macro_scale",
              before_end(teardown_s + run_s), before_end(teardown_s));
    spans.add("scenario.teardown", "scenario.run_macro_scale",
              before_end(teardown_s), t1);
    spans.add("replay", "rep", r0, r1);
  }

  JsonObject timing;
  timing.num("setup_s", setup_s)
      .num("run_s", run_s)
      .num("cpu_s", cpu_s)
      .num("teardown_s", teardown_s)
      .num("build_s", setup_s - teardown_s);

  JsonObject out;
  out.obj("outputs", outputs).obj("timing", timing).obj("counters", counters);
  if (kTraced) out.obj("replay", replay).obj("spans", spans.json());
  out.num("shards", r.shards).num("workers", r.worker_threads);
  return out.text();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::string kind = args.text("kind");
  std::string body;
  if (kind == "nat_stream") {
    body = run_nat_stream(args);
  } else if (kind == "macro") {
    body = run_macro(args);
  } else {
    usage_error("unknown kind '" + kind + "'");
  }
  // Appended last so the high-water mark covers teardown too.
  char host[256];
  std::snprintf(host, sizeof host,
                "\"peak_rss_mb\": %.17g, \"traced\": %d, "
                "\"hardware_concurrency\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"",
                peak_rss_mb(), kTraced ? 1 : 0,
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE);
  body.insert(body.size() - 1, std::string(", ") + host);
  std::printf("%s\n", body.c_str());
  return 0;
}
