#include "scenario/macro_scale.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "orch/scheduler.hpp"
#include "scenario/overlay.hpp"
#include "trace/google_trace.hpp"
#include "vmm/fabric.hpp"

namespace nestv::scenario {
namespace {

/// Sub-stream ids for Rng::of_stream / Rng::mix seed derivation.
constexpr std::uint64_t kTraceStream = 0x6d736361ULL;     // "msca"
constexpr std::uint64_t kFlowStreamBase = 0x10000ULL;     // + flow ordinal
constexpr std::uint64_t kMachineStreamBase = 0x2000ULL;   // + machine ordinal
constexpr std::uint64_t kStreamStreamBase = 0x3000ULL;    // + stream ordinal

/// Ephemeral client-port pool per machine: reuse distance (50k flows per
/// machine) is orders of magnitude beyond any flow lifetime, so a recycled
/// port never collides with a live binding.
constexpr std::uint32_t kClientPortBase = 10000;
constexpr std::uint32_t kClientPortSpan = 50000;

/// Per-machine accumulators.  Only ever mutated from the owning machine's
/// engine (client-side callbacks run there), merged in machine order after
/// the run — the same "local state, ordered merge" determinism recipe as
/// the conductor's per-shard event counters.
struct MachineStats {
  double flows_completed = 0;
  double transactions = 0;
  double latency_ns_sum = 0;
  double digest = 0;
  std::vector<sim::TimePoint> arrivals;
  std::vector<sim::TimePoint> completions;
  std::uint64_t gc_reaped = 0;
  std::uint64_t peak_entries = 0;
  std::uint64_t bytes_at_peak = 0;
  std::uint64_t ct_bytes_at_peak = 0;
  std::uint64_t fc_bytes_at_peak = 0;
  std::uint64_t fc_entries_at_peak = 0;
  std::uint64_t oc_peak_entries = 0;
  std::uint64_t oc_bytes_at_peak = 0;
};

/// One ephemeral churn flow: a short UDP RR exchange from a fresh client
/// port.  Arrival inserts fresh conntrack/flowcache state on every stack
/// along the path; departure unbinds and leaves the entries to the GC.
struct ChurnFlow {
  net::StackBackend* cli_stack = nullptr;
  sim::SerialResource* cli_app = nullptr;
  sim::Engine* engine = nullptr;
  net::Ipv4Address cli_ip, srv_ip;
  std::uint16_t cli_port = 0, srv_port = 0;
  std::uint32_t bytes = 0;
  int remaining = 1;
  sim::Rng rng{1};
  sim::TimePoint issued_at = 0;
  std::uint64_t tx = 0;
  std::uint64_t lat_ns = 0;
  int ordinal = 0;
  MachineStats* acc = nullptr;
  bool done = false;

  void issue() {
    issued_at = engine->now();
    cli_stack->udp_send(cli_ip, cli_port, srv_ip, srv_port, bytes, cli_app);
  }
};

void start_churn_flow(const std::shared_ptr<ChurnFlow>& d) {
  d->acc->arrivals.push_back(d->engine->now());
  d->cli_stack->udp_bind(
      d->cli_port, d->cli_app, [d](net::StackBackend::UdpDelivery&) {
        if (d->done) return;  // straggler after departure
        d->lat_ns += d->engine->now() - d->issued_at;
        ++d->tx;
        if (--d->remaining <= 0) {
          d->done = true;
          d->acc->flows_completed += 1;
          d->acc->transactions += double(d->tx);
          d->acc->latency_ns_sum += double(d->lat_ns);
          d->acc->digest += double(d->ordinal + 1) *
                            (double(d->tx) * 1e-3 + double(d->lat_ns) * 1e-9);
          d->acc->completions.push_back(d->engine->now());
          // Unbind in a fresh event: tearing the binding down from inside
          // its own handler would destroy the closure mid-execution.
          net::StackBackend* stack = d->cli_stack;
          const std::uint16_t port = d->cli_port;
          d->engine->schedule_in(1, [stack, port] {
            stack->udp_unbind(port);
          });
          return;
        }
        const sim::Duration think = d->rng.uniform_int(500, 4500);
        d->engine->schedule_in(think, [d] { d->issue(); });
      });
  d->issue();
}

/// TCP bulk sender keeping up to two windows queued (the long-lived
/// streams riding under the churn), same self-driving chain as
/// datacenter_macro.
struct StreamDriver {
  net::StackBackend* cli_stack = nullptr;
  sim::SerialResource* cli_app = nullptr;
  sim::Engine* cli_engine = nullptr;
  net::Ipv4Address cli_ip, srv_service_ip;
  std::uint16_t srv_port = 0;
  std::uint32_t msg_bytes = 0;
  sim::TimePoint stop_at = 0;
  std::shared_ptr<net::TcpSocket> sock;
  std::shared_ptr<std::function<void()>> send_chain;
  bool waiting = false;
};

void start_stream(const std::shared_ptr<StreamDriver>& d,
                  sim::TimePoint start) {
  d->cli_engine->schedule_at(start, [d] {
    d->sock = std::make_shared<net::TcpSocket>(d->cli_stack->tcp_connect(
        d->cli_ip, d->srv_service_ip, d->srv_port, d->cli_app));
    auto chain = std::make_shared<std::function<void()>>();
    d->send_chain = chain;
    const std::uint32_t high_water = 2 * 262144;
    *chain = [d, chain, high_water] {
      if (d->cli_engine->now() >= d->stop_at) return;
      if (d->sock->buffered() >= high_water) {
        d->waiting = true;
        return;
      }
      d->sock->send(d->msg_bytes, [chain] { (*chain)(); });
    };
    d->sock->set_on_writable([d, chain] {
      if (d->waiting) {
        d->waiting = false;
        (*chain)();
      }
    });
    d->sock->set_on_connected([chain] { (*chain)(); });
  });
}

/// A long-lived server pod (NAT published-port or BrFusion).
struct ServerPod {
  Testbed* bed = nullptr;
  int machine = 0;
  bool nat = false;
  std::uint16_t port = 0;
  vmm::Vm* vm = nullptr;
  container::Pod::Fragment* frag = nullptr;
  container::Container* ctr = nullptr;
  net::Ipv4Address service_ip;  ///< what clients dial (filled when ready)
  net::Ipv4Address local_ip;    ///< the pod's own address (reply source)
  /// TCP stream byte sink (one per pod; streams targeting this pod share
  /// it, counted on the pod's own engine).
  std::shared_ptr<std::uint64_t> stream_delivered =
      std::make_shared<std::uint64_t>(0);
  bool listening = false;
};

/// A cross-VM Hostlo pod (client and server fragments on one machine).
struct HostloPair {
  Testbed* bed = nullptr;
  std::uint16_t port = 0;
  container::Pod::Fragment* cli_frag = nullptr;
  container::Pod::Fragment* srv_frag = nullptr;
  container::Container* cli_ctr = nullptr;
  container::Container* srv_ctr = nullptr;
  std::vector<core::HostloCni::EndpointInfo> eps;

  [[nodiscard]] bool ready() const {
    return cli_ctr != nullptr && srv_ctr != nullptr && eps.size() == 2;
  }
};

/// A cross-VM overlay pod pair: two VMs on one machine joined by a
/// private VXLAN overlay (the Docker-overlay deployment mode), inner
/// frames tunneling VM-to-VM through the host bridge underlay.
struct OverlayPair {
  Testbed* bed = nullptr;
  std::uint16_t port = 0;
  vmm::Vm* vm_a = nullptr;
  vmm::Vm* vm_b = nullptr;
  container::Pod::Fragment* cli_frag = nullptr;
  container::Pod::Fragment* srv_frag = nullptr;
  container::Container* cli_ctr = nullptr;
  container::Container* srv_ctr = nullptr;
  std::unique_ptr<OverlayNetwork> overlay;
  net::Ipv4Address cli_ip, srv_ip;  // overlay addresses (post-deploy)

  [[nodiscard]] bool ready() const {
    return cli_ctr != nullptr && srv_ctr != nullptr;
  }
};

container::Runtime::AttachFn immediate_attach() {
  return [](container::Pod::Fragment&,
            std::function<void(container::Runtime::AttachOutcome)> done) {
    done(container::Runtime::AttachOutcome{true, -1, net::Ipv4Address{}});
  };
}

void boot(Testbed& bed, container::Pod::Fragment& frag,
          const std::string& name, container::Runtime::AttachFn attach,
          container::Container** out) {
  bed.runtime_for(*frag.vm).create_container(
      frag, container::Image{name + "-image"}, name, std::move(attach),
      [out](container::Container& c, sim::Duration) { *out = &c; });
}

}  // namespace

MacroScaleResult run_macro_scale(const MacroScaleConfig& config) {
  if (config.machines < 2) {
    throw std::invalid_argument("macro scale needs >= 2 machines");
  }
  if (config.shards < 1 || config.shards > config.machines) {
    throw std::invalid_argument("shards must be in [1, machines]");
  }
  if (config.server_pods_per_machine < 2) {
    throw std::invalid_argument(
        "macro scale needs >= 2 server pods per machine (one NAT, one "
        "BrFusion)");
  }

  MacroScaleResult out;
  out.shards = config.shards;

  // Lookahead: nothing crosses machines faster than the shortest fabric
  // link (machine->ToR or ToR->spine, whichever is shorter).
  sim::ShardedConductor conductor(
      config.shards, vmm::HierarchicalFabric::min_link_latency(config.costs),
      config.max_workers);
  out.worker_threads = conductor.worker_threads();

  // ---- machines, pinned to shards; two-tier fabric over them ----------
  const int m_count = config.machines;
  std::vector<std::unique_ptr<Testbed>> beds;
  beds.reserve(std::size_t(m_count));
  for (int i = 0; i < m_count; ++i) {
    TestbedConfig tc;
    tc.seed = sim::Rng::mix(config.seed,
                            kMachineStreamBase + std::uint64_t(i));
    tc.costs = config.costs;
    tc.engine = &conductor.shard(i * config.shards / m_count);
    tc.machine.name = "host" + std::to_string(i);
    // 10.200.x.y/24 VM subnets: distinct per machine, scaling past the
    // 150-odd machines a single /16 third octet window allows.
    tc.machine.bridge_subnet = net::Ipv4Cidr(
        net::Ipv4Address(10, std::uint8_t(200 - i / 250),
                         std::uint8_t(i % 250), 0),
        24);
    beds.push_back(std::make_unique<Testbed>(tc));
  }
  vmm::FabricConfig fc;
  fc.machines_per_rack = config.machines_per_rack;
  fc.spines = config.spines;
  vmm::HierarchicalFabric fabric(conductor.shard(0), beds[0]->costs(), fc,
                                 &conductor);
  for (auto& bed : beds) fabric.attach(bed->machine());

  // ---- population sizing: the Google-like trace ------------------------
  trace::TraceConfig tcfg;
  tcfg.seed = sim::Rng::mix(config.seed, kTraceStream);
  tcfg.users = config.trace_users;
  const auto users = trace::generate_google_like_trace(tcfg);
  orch::AwsM5Catalog catalog;
  orch::KubernetesScheduler scheduler(catalog);
  std::vector<int> vm_machine;  // placed VM ordinal -> physical machine
  for (const auto& user : users) {
    const orch::Placement placement = scheduler.schedule(user);
    out.pods_scheduled += double(user.pods.size());
    out.vms_bought += double(placement.vms.size());
    out.placement_cost_per_hour += placement.cost_per_hour();
    for (std::size_t v = 0; v < placement.vms.size(); ++v) {
      vm_machine.push_back(int(vm_machine.size()) % m_count);
    }
  }

  // ---- long-lived server pods -----------------------------------------
  std::vector<ServerPod> servers;
  // Reserved up front: boot() holds &ctr across the async deployment, so
  // the vector must never reallocate.
  servers.reserve(std::size_t(m_count) *
                  std::size_t(config.server_pods_per_machine));
  std::vector<std::vector<int>> nat_of(static_cast<std::size_t>(m_count));
  std::vector<std::vector<int>> br_of(static_cast<std::size_t>(m_count));
  for (int i = 0; i < m_count; ++i) {
    for (int j = 0; j < config.server_pods_per_machine; ++j) {
      servers.emplace_back();
      ServerPod& s = servers.back();
      s.bed = beds[std::size_t(i)].get();
      s.machine = i;
      s.nat = (j % 2 == 0);
      s.port = std::uint16_t(5000 + servers.size() - 1);
      const std::string name =
          "srv" + std::to_string(i) + "-" + std::to_string(j);
      s.vm = &s.bed->create_vm_with_uplink(name);
      auto& pod = s.bed->create_pod(name + "-pod");
      s.frag = &pod.add_fragment(*s.vm);
      if (s.nat) {
        core::Cni::Options publish;
        publish.publish_ports = {s.port};
        boot(*s.bed, *s.frag, name, s.bed->nat_cni().attach_fn(publish),
             &s.ctr);
      } else {
        boot(*s.bed, *s.frag, name, s.bed->brfusion_cni().attach_fn({}),
             &s.ctr);
      }
      (s.nat ? nat_of : br_of)[std::size_t(i)].push_back(
          int(servers.size()) - 1);
    }
  }

  // ---- Hostlo cross-VM pods -------------------------------------------
  std::vector<std::unique_ptr<HostloPair>> pairs;
  std::vector<std::vector<int>> pairs_of(static_cast<std::size_t>(m_count));
  for (int i = 0; i < m_count; ++i) {
    for (int h = 0; h < config.hostlo_pairs_per_machine; ++h) {
      auto hp = std::make_unique<HostloPair>();
      hp->bed = beds[std::size_t(i)].get();
      hp->port = std::uint16_t(6000 + pairs.size());
      const std::string name =
          "hl" + std::to_string(i) + "-" + std::to_string(h);
      vmm::Vm& vm_a = hp->bed->create_vm_with_uplink(name + "-a");
      vmm::Vm& vm_b = hp->bed->create_vm_with_uplink(name + "-b");
      auto& pod = hp->bed->create_pod(name + "-pod");
      hp->cli_frag = &pod.add_fragment(vm_a);
      hp->srv_frag = &pod.add_fragment(vm_b);
      HostloPair* raw = hp.get();
      hp->bed->hostlo_cni().attach_pod(
          pod, [raw](std::vector<core::HostloCni::EndpointInfo> eps) {
            raw->eps = std::move(eps);
          });
      boot(*hp->bed, *hp->cli_frag, name + "-cli", immediate_attach(),
           &hp->cli_ctr);
      boot(*hp->bed, *hp->srv_frag, name + "-srv", immediate_attach(),
           &hp->srv_ctr);
      pairs_of[std::size_t(i)].push_back(int(pairs.size()));
      pairs.push_back(std::move(hp));
    }
  }

  // ---- Overlay cross-VM pods ------------------------------------------
  std::vector<std::unique_ptr<OverlayPair>> ovpairs;
  std::vector<std::vector<int>> ov_of(static_cast<std::size_t>(m_count));
  for (int i = 0; i < m_count; ++i) {
    for (int v = 0; v < config.overlay_pairs_per_machine; ++v) {
      auto op = std::make_unique<OverlayPair>();
      op->bed = beds[std::size_t(i)].get();
      op->port = std::uint16_t(7000 + ovpairs.size());
      const std::string name =
          "ov" + std::to_string(i) + "-" + std::to_string(v);
      op->vm_a = &op->bed->create_vm_with_uplink(name + "-a");
      op->vm_b = &op->bed->create_vm_with_uplink(name + "-b");
      auto& pod = op->bed->create_pod(name + "-pod");
      op->cli_frag = &pod.add_fragment(*op->vm_a);
      op->srv_frag = &pod.add_fragment(*op->vm_b);
      // One isolated overlay per pair (distinct VNIs); the shared 10.99/24
      // inner subnet never reaches the underlay, so pairs cannot collide.
      op->overlay = std::make_unique<OverlayNetwork>(
          *op->bed, net::Ipv4Cidr(net::Ipv4Address(10, 99, 0, 0), 24),
          OverlayNetwork::OncacheMode::kAttached,
          std::uint32_t(100 + ovpairs.size()));
      OverlayPair* raw = op.get();
      auto overlay_attach =
          [raw](container::Pod::Fragment& fragment,
                std::function<void(container::Runtime::AttachOutcome)>
                    done) {
            const auto a = raw->overlay->attach(fragment);
            done(container::Runtime::AttachOutcome{true, a.ifindex, a.ip});
          };
      boot(*op->bed, *op->cli_frag, name + "-cli", overlay_attach,
           &op->cli_ctr);
      boot(*op->bed, *op->srv_frag, name + "-srv", overlay_attach,
           &op->srv_ctr);
      ov_of[std::size_t(i)].push_back(int(ovpairs.size()));
      ovpairs.push_back(std::move(op));
    }
  }

  // ---- deployment: the conductor (and only the conductor) moves time --
  const sim::Duration step = sim::milliseconds(10);
  const sim::TimePoint deploy_limit = sim::seconds(120);
  auto all_ready = [&servers, &pairs, &ovpairs] {
    for (const ServerPod& s : servers) {
      if (s.ctr == nullptr) return false;
    }
    for (const auto& hp : pairs) {
      if (!hp->ready()) return false;
    }
    for (const auto& op : ovpairs) {
      if (!op->ready()) return false;
    }
    return true;
  };
  while (!all_ready()) {
    if (conductor.now() >= deploy_limit) {
      throw std::runtime_error("macro scale: deployment timed out");
    }
    conductor.run_until(conductor.now() + step);
  }

  // ---- post-deploy wiring ----------------------------------------------
  // The churn path exercises the flowcache everywhere: host forwarding
  // stacks, the NAT guests doing DNAT, and the pod stacks.
  for (auto& bed : beds) bed->machine().stack().set_flowcache(true);
  for (ServerPod& s : servers) {
    s.vm->stack().set_flowcache(true);
    s.frag->stack->set_flowcache(true);
    s.local_ip = s.frag->stack->iface_ip(s.frag->stack->ifindex_of("eth0"));
    // NAT: clients dial the VM's published (DNAT'd) address; BrFusion: the
    // pod NIC's bridge-subnet address is routable fabric-wide.
    s.service_ip = s.nat ? s.vm->stack().iface_ip(
                               s.vm->stack().ifindex_of("eth0"))
                         : s.local_ip;
    // Persistent UDP echo server: one binding for the whole run; churn
    // clients come and go against it.
    net::StackBackend* stack = s.frag->stack.get();
    sim::SerialResource* app = s.ctr->app_core();
    const net::Ipv4Address local = s.local_ip;
    const std::uint16_t port = s.port;
    stack->udp_bind(port, app,
                    [stack, app, local, port](
                        net::StackBackend::UdpDelivery& del) {
                      stack->udp_send(local, port, del.src_ip, del.src_port,
                                      del.bytes, app);
                    });
  }
  for (auto& hp : pairs) {
    hp->cli_frag->stack->set_flowcache(true);
    hp->srv_frag->stack->set_flowcache(true);
    net::StackBackend* stack = hp->srv_frag->stack.get();
    sim::SerialResource* app = hp->srv_ctr->app_core();
    const net::Ipv4Address local = hp->eps[1].ip;
    const std::uint16_t port = hp->port;
    stack->udp_bind(port, app,
                    [stack, app, local, port](
                        net::StackBackend::UdpDelivery& del) {
                      stack->udp_send(local, port, del.src_ip, del.src_port,
                                      del.bytes, app);
                    });
  }
  for (auto& op : ovpairs) {
    // Gossip tables first, then the fast path; churn clients dial the
    // server fragment's overlay address through the VXLAN tunnel.
    op->overlay->finalize();
    op->overlay->set_oncache_enabled(config.oncache_enabled);
    op->vm_a->stack().set_flowcache(true);
    op->vm_b->stack().set_flowcache(true);
    op->cli_frag->stack->set_flowcache(true);
    op->srv_frag->stack->set_flowcache(true);
    op->cli_ip = op->cli_frag->stack->iface_ip(
        op->cli_frag->stack->ifindex_of("ov0"));
    op->srv_ip = op->srv_frag->stack->iface_ip(
        op->srv_frag->stack->ifindex_of("ov0"));
    net::StackBackend* stack = op->srv_frag->stack.get();
    sim::SerialResource* app = op->srv_ctr->app_core();
    const net::Ipv4Address local = op->srv_ip;
    const std::uint16_t port = op->port;
    stack->udp_bind(port, app,
                    [stack, app, local, port](
                        net::StackBackend::UdpDelivery& del) {
                      stack->udp_send(local, port, del.src_ip, del.src_port,
                                      del.bytes, app);
                    });
  }

  // One shared client app core per machine: ephemeral flows are cheap
  // clients, not one pinned process each (10^6 SerialResources would be
  // absurd); sharing one core serializes them like one busy client box.
  std::vector<sim::SerialResource*> cli_core(static_cast<std::size_t>(m_count));
  for (int i = 0; i < m_count; ++i) {
    cli_core[std::size_t(i)] =
        &beds[std::size_t(i)]->machine().make_app_core("churn-cli");
  }

  // ---- per-machine state tracking (GC + occupancy sampling) ------------
  std::vector<MachineStats> stats(static_cast<std::size_t>(m_count));
  std::vector<std::vector<net::StackBackend*>> tracked(static_cast<std::size_t>(m_count));
  for (int i = 0; i < m_count; ++i) {
    tracked[std::size_t(i)].push_back(&beds[std::size_t(i)]->machine().stack());
  }
  for (ServerPod& s : servers) {
    tracked[std::size_t(s.machine)].push_back(&s.vm->stack());
    tracked[std::size_t(s.machine)].push_back(s.frag->stack.get());
  }
  for (int m = 0; m < m_count; ++m) {
    for (const int p : pairs_of[std::size_t(m)]) {
      tracked[std::size_t(m)].push_back(
          pairs[std::size_t(p)]->cli_frag->stack.get());
      tracked[std::size_t(m)].push_back(
          pairs[std::size_t(p)]->srv_frag->stack.get());
    }
  }
  std::vector<std::vector<const OverlayNetwork*>> overlays(
      static_cast<std::size_t>(m_count));
  for (int m = 0; m < m_count; ++m) {
    for (const int p : ov_of[std::size_t(m)]) {
      OverlayPair& op = *ovpairs[std::size_t(p)];
      tracked[std::size_t(m)].push_back(&op.vm_a->stack());
      tracked[std::size_t(m)].push_back(&op.vm_b->stack());
      tracked[std::size_t(m)].push_back(op.cli_frag->stack.get());
      tracked[std::size_t(m)].push_back(op.srv_frag->stack.get());
      overlays[std::size_t(m)].push_back(op.overlay.get());
    }
  }

  const sim::TimePoint start_base = conductor.now() + sim::milliseconds(1);
  const sim::TimePoint arrivals_end = start_base + config.arrival_window;
  const sim::TimePoint traffic_end = arrivals_end + config.drain;

  std::vector<std::shared_ptr<std::function<void()>>> ticks;
  for (int i = 0; i < m_count; ++i) {
    sim::Engine* engp = &beds[std::size_t(i)]->engine();
    MachineStats* acc = &stats[std::size_t(i)];
    std::vector<net::StackBackend*>* stacks = &tracked[std::size_t(i)];
    const std::vector<const OverlayNetwork*>* nets =
        &overlays[std::size_t(i)];
    auto tick = std::make_shared<std::function<void()>>();
    ticks.push_back(tick);
    const sim::Duration idle = config.conntrack_idle;
    const sim::Duration interval = config.gc_interval;
    *tick = [engp, acc, stacks, nets, idle, interval, traffic_end, tick] {
      std::uint64_t entries = 0;
      std::uint64_t ct_bytes = 0;
      std::uint64_t fc_bytes = 0;
      std::uint64_t fc_entries = 0;
      for (net::StackBackend* s : *stacks) {
        if (s->has_netfilter()) {
          acc->gc_reaped += s->conntrack_gc(idle);
          entries += s->netfilter().conntrack_size();
          ct_bytes += s->netfilter().conntrack_state_bytes();
        }
        if (s->has_flowcache() && s->flowcache_enabled()) {
          fc_bytes += s->flow_cache().state_bytes();
          fc_entries += s->flow_cache().size();
        }
      }
      if (entries > acc->peak_entries) {
        acc->peak_entries = entries;
        acc->bytes_at_peak = ct_bytes + fc_bytes;
        acc->ct_bytes_at_peak = ct_bytes;
        acc->fc_bytes_at_peak = fc_bytes;
        acc->fc_entries_at_peak = fc_entries;
      }
      // The encap/decap caches peak on their own clock (they only warm
      // once overlay flows run), so they are tracked against their own
      // occupancy peak rather than the conntrack one.
      std::uint64_t oc_entries = 0;
      std::uint64_t oc_bytes = 0;
      for (const OverlayNetwork* n : *nets) {
        const auto t = n->oncache_totals();
        oc_entries += t.entries;
        oc_bytes += t.state_bytes;
      }
      if (oc_entries > acc->oc_peak_entries) {
        acc->oc_peak_entries = oc_entries;
        acc->oc_bytes_at_peak = oc_bytes;
      }
      if (engp->now() + interval <= traffic_end) {
        engp->schedule_in(interval, [tick] { (*tick)(); });
      }
    };
    // Staggered per machine: purely local work, but no reason to pile
    // every machine's GC onto the same nanosecond.
    engp->schedule_at(start_base + config.gc_interval +
                          std::uint64_t(i) * 1009,
                      [tick] { (*tick)(); });
  }

  // ---- open-loop churn arrivals ----------------------------------------
  // Arrival instants are a pure function of the flow ordinal (never of
  // completions): flow k lands at start + k*interarrival + jitter(k).
  const std::uint64_t interarrival =
      config.flows > 0
          ? std::max<std::uint64_t>(
                1, std::uint64_t(config.arrival_window) /
                       std::uint64_t(config.flows))
          : 1;
  auto arrival_time = [&config, start_base,
                       interarrival](int k) -> sim::TimePoint {
    sim::Rng rng = sim::Rng::of_stream(config.seed,
                                       kFlowStreamBase + std::uint64_t(k));
    const std::uint64_t jitter =
        rng.uniform_int(0, std::max<std::uint64_t>(1, interarrival / 2));
    return start_base + std::uint64_t(k) * interarrival + jitter;
  };

  auto launch_flow = [&](int k) {
    const int cm = k % m_count;
    sim::Rng rng = sim::Rng::of_stream(config.seed,
                                       kFlowStreamBase + std::uint64_t(k));
    (void)rng.uniform_int(0, std::max<std::uint64_t>(1, interarrival / 2));

    // The overlay mode joins the rotation only when the knob asks for it,
    // so the default config's flow schedule (and every simulated output)
    // is byte-identical to the pre-overlay scenario.
    const bool overlay_on = config.overlay_pairs_per_machine > 0;
    int mode = k % (overlay_on ? 4 : 3);
    if (mode == 2 && pairs_of[std::size_t(cm)].empty()) mode = 1;
    if (mode == 3 && ov_of[std::size_t(cm)].empty()) mode = 1;

    auto d = std::make_shared<ChurnFlow>();
    d->ordinal = k;
    d->acc = &stats[std::size_t(cm)];
    d->bytes = config.rr_bytes + 16 * std::uint32_t(k % 7);
    const int max_extra = 2 * (config.flow_transactions - 1);
    d->remaining =
        1 + (max_extra > 0
                 ? int(rng.uniform_int(0, std::uint64_t(max_extra)))
                 : 0);
    d->rng = rng;

    if (mode == 3) {
      const auto& olist = ov_of[std::size_t(cm)];
      const OverlayPair& op =
          *ovpairs[std::size_t(olist[std::size_t(k / 4) % olist.size()])];
      d->cli_stack = op.cli_frag->stack.get();
      d->cli_app = op.cli_ctr->app_core();
      d->cli_ip = op.cli_ip;
      d->srv_ip = op.srv_ip;
      d->srv_port = op.port;
    } else if (mode == 2) {
      const auto& plist = pairs_of[std::size_t(cm)];
      const HostloPair& hp =
          *pairs[std::size_t(plist[std::size_t(k / 3) % plist.size()])];
      d->cli_stack = hp.cli_frag->stack.get();
      d->cli_app = hp.cli_ctr->app_core();
      d->cli_ip = hp.eps[0].ip;
      d->srv_ip = hp.eps[1].ip;
      d->srv_port = hp.port;
    } else {
      int sm = vm_machine.empty()
                   ? (cm + 1 + k % (m_count - 1)) % m_count
                   : vm_machine[std::size_t(k) % vm_machine.size()];
      if (sm == cm) sm = (sm + 1) % m_count;
      const auto& slist =
          (mode == 0 ? nat_of : br_of)[std::size_t(sm)];
      const ServerPod& s =
          servers[std::size_t(slist[std::size_t(k / 3) % slist.size()])];
      d->cli_stack = &beds[std::size_t(cm)]->machine().stack();
      d->cli_app = cli_core[std::size_t(cm)];
      d->cli_ip = beds[std::size_t(cm)]->machine().bridge_ip();
      d->srv_ip = s.service_ip;
      d->srv_port = s.port;
    }
    d->engine = &beds[std::size_t(cm)]->engine();
    d->cli_port = std::uint16_t(
        kClientPortBase + std::uint32_t(k / m_count) % kClientPortSpan);
    start_churn_flow(d);
  };

  // One self-chaining arrival pump per client machine (flow k's arrival
  // schedules flow k+machines'): O(live flows) memory, never O(flows)
  // events queued at once.
  std::vector<std::shared_ptr<std::function<void(int)>>> pumps;
  for (int cm = 0; cm < m_count && cm < config.flows; ++cm) {
    auto pump = std::make_shared<std::function<void(int)>>();
    pumps.push_back(pump);
    sim::Engine* engp = &beds[std::size_t(cm)]->engine();
    *pump = [&, pump, engp](int k) {
      const int next = k + m_count;
      if (next < config.flows) {
        engp->schedule_at(arrival_time(next),
                          [pump, next] { (*pump)(next); });
      }
      launch_flow(k);
    };
    engp->schedule_at(arrival_time(cm), [pump, cm] { (*pump)(cm); });
  }

  // ---- long-lived TCP streams through the NAT path ---------------------
  std::vector<std::shared_ptr<StreamDriver>> streams;
  std::vector<int> stream_target;
  for (int k = 0; k < config.tcp_streams; ++k) {
    const int cm = k % m_count;
    int sm = (cm + 1 + k) % m_count;
    if (sm == cm) sm = (sm + 1) % m_count;
    const auto& slist = nat_of[std::size_t(sm)];
    const int target = slist[std::size_t(k) % slist.size()];
    ServerPod& s = servers[std::size_t(target)];
    if (!s.listening) {
      s.listening = true;
      auto delivered = s.stream_delivered;
      s.frag->stack->tcp_listen(s.port, s.ctr->app_core(),
                                [delivered](net::TcpSocket sock) {
                                  sock.set_on_receive(
                                      [delivered](std::uint32_t n) {
                                        *delivered += n;
                                      });
                                });
    }
    sim::Rng srng = sim::Rng::of_stream(config.seed,
                                        kStreamStreamBase + std::uint64_t(k));
    auto d = std::make_shared<StreamDriver>();
    d->cli_stack = &beds[std::size_t(cm)]->machine().stack();
    d->cli_app = &beds[std::size_t(cm)]->machine().make_app_core(
        "stream" + std::to_string(k) + "-cli");
    d->cli_engine = &beds[std::size_t(cm)]->engine();
    d->cli_ip = beds[std::size_t(cm)]->machine().bridge_ip();
    d->srv_service_ip = s.service_ip;
    d->srv_port = s.port;
    d->msg_bytes = config.stream_msg_bytes + 64 * std::uint32_t(k % 5);
    d->stop_at = arrivals_end;
    start_stream(d, start_base + srng.uniform_int(0, 100000));
    streams.push_back(std::move(d));
    stream_target.push_back(target);
  }

  // ---- run --------------------------------------------------------------
  const auto wall0 = std::chrono::steady_clock::now();
  conductor.run_until(traffic_end);
  const auto wall1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  // Break the self-capturing cycles (each closure owns its shared_ptr).
  for (auto& d : streams) {
    if (d->send_chain != nullptr) *d->send_chain = nullptr;
  }
  for (auto& t : ticks) *t = nullptr;
  for (auto& p : pumps) *p = nullptr;

  // ---- aggregate, in machine / server order ----------------------------
  std::vector<std::pair<sim::TimePoint, int>> sweep;  // (t, 0=arrive 1=done)
  for (int i = 0; i < m_count; ++i) {
    const MachineStats& a = stats[std::size_t(i)];
    out.flows_completed += a.flows_completed;
    out.rr_transactions += a.transactions;
    out.rr_latency_ns_sum += a.latency_ns_sum;
    out.flow_digest += a.digest;
    out.conntrack_gc_reaped += a.gc_reaped;
    out.conntrack_peak_entries += a.peak_entries;
    out.state_bytes_at_peak += a.bytes_at_peak;
    out.conntrack_bytes_at_peak += a.ct_bytes_at_peak;
    out.flowcache_bytes_at_peak += a.fc_bytes_at_peak;
    out.flowcache_entries_at_peak += a.fc_entries_at_peak;
    out.oncache_entries_at_peak += a.oc_peak_entries;
    out.oncache_bytes_at_peak += a.oc_bytes_at_peak;
    for (const sim::TimePoint t : a.arrivals) sweep.emplace_back(t, 0);
    for (const sim::TimePoint t : a.completions) sweep.emplace_back(t, 1);
  }
  std::sort(sweep.begin(), sweep.end());
  std::uint64_t live = 0;
  for (const auto& [t, kind] : sweep) {
    if (kind == 0) {
      ++live;
      out.peak_concurrent_flows = std::max(out.peak_concurrent_flows, live);
    } else {
      --live;
    }
  }
  if (out.conntrack_peak_entries > 0) {
    out.state_bytes_per_flow = double(out.state_bytes_at_peak) /
                               double(out.conntrack_peak_entries);
  }
  int k = 0;
  for (const int target : stream_target) {
    // Per-pod sinks may be shared; count each pod once, weight by the
    // first stream ordinal that claimed it (stable across runs).
    ServerPod& s = servers[std::size_t(target)];
    const double bytes = double(*s.stream_delivered);
    if (bytes > 0) {
      out.stream_bytes_delivered += bytes;
      out.flow_digest += double(config.flows + k + 1) * bytes * 1e-6;
      *s.stream_delivered = 0;  // so a second stream on this pod adds 0
    }
    ++k;
  }
  for (const auto& op : ovpairs) {
    const auto t = op->overlay->oncache_totals();
    out.oncache_hits += t.egress_hits + t.ingress_hits;
  }
  out.events_total = conductor.total_events();
  out.per_shard_events = conductor.per_shard_events();
  static_cast<sim::ConductorStats&>(out) = conductor.stats();
  return out;
}

}  // namespace nestv::scenario
