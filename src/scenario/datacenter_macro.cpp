#include "scenario/datacenter_macro.hpp"

#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "orch/scheduler.hpp"
#include "trace/google_trace.hpp"
#include "vmm/datacenter.hpp"

namespace nestv::scenario {
namespace {

/// Sub-stream ids for Rng::of_stream / Rng::mix seed derivation.
constexpr std::uint64_t kTraceStream = 0x6d616372ULL;  // "macr"
constexpr std::uint64_t kFlowStreamBase = 0x1000ULL;   // + flow ordinal
constexpr std::uint64_t kMachineStreamBase = 0x2000ULL;  // + machine ordinal

/// UDP request/response loop driving itself on the client's engine.  The
/// think time between transactions is jittered from a per-flow RNG so
/// concurrent flows never collide on an exact nanosecond at a shared
/// resource (the determinism argument of the sharded conductor relies on
/// same-instant cross-shard/local ties not occurring).
struct RrDriver {
  net::StackBackend* cli_stack = nullptr;
  net::StackBackend* srv_stack = nullptr;
  sim::SerialResource* cli_app = nullptr;
  sim::SerialResource* srv_app = nullptr;
  sim::Engine* cli_engine = nullptr;
  net::Ipv4Address cli_ip, srv_service_ip, srv_local_ip;
  std::uint16_t cli_port = 0, srv_port = 0;
  std::uint32_t bytes = 0;
  sim::Rng rng{1};
  sim::TimePoint stop_at = 0;
  sim::TimePoint issued_at = 0;
  std::uint64_t transactions = 0;
  std::uint64_t latency_ns_sum = 0;

  void issue() {
    issued_at = cli_engine->now();
    cli_stack->udp_send(cli_ip, cli_port, srv_service_ip, srv_port, bytes,
                        cli_app);
  }
};

void start_rr(const std::shared_ptr<RrDriver>& d, sim::TimePoint start) {
  d->srv_stack->udp_bind(
      d->srv_port, d->srv_app,
      [d](net::StackBackend::UdpDelivery& del) {
        d->srv_stack->udp_send(d->srv_local_ip, d->srv_port, del.src_ip,
                               del.src_port, d->bytes, d->srv_app);
      });
  d->cli_stack->udp_bind(
      d->cli_port, d->cli_app, [d](net::StackBackend::UdpDelivery&) {
        d->latency_ns_sum += d->cli_engine->now() - d->issued_at;
        ++d->transactions;
        if (d->cli_engine->now() >= d->stop_at) return;
        const sim::Duration think = d->rng.uniform_int(500, 4500);
        d->cli_engine->schedule_in(think, [d] { d->issue(); });
      });
  d->cli_engine->schedule_at(start, [d] { d->issue(); });
}

/// TCP bulk sender keeping up to two windows queued (the Netperf stream
/// shape), rebuilt as a self-driving chain because nothing in a sharded
/// world may run an engine directly.
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
  std::shared_ptr<std::uint64_t> delivered =
      std::make_shared<std::uint64_t>(0);
  bool waiting = false;
};

void start_stream(const std::shared_ptr<StreamDriver>& d,
                  net::StackBackend& srv_stack,
                  sim::SerialResource& srv_app, sim::TimePoint start) {
  auto delivered = d->delivered;
  srv_stack.tcp_listen(d->srv_port, &srv_app,
                       [delivered](net::TcpSocket sock) {
                         sock.set_on_receive([delivered](std::uint32_t n) {
                           *delivered += n;
                         });
                       });
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

enum class FlowMode { kNatStream, kBrFusionRr, kHostloRr };

struct Flow {
  FlowMode mode = FlowMode::kNatStream;
  Testbed* srv_bed = nullptr;
  Testbed* cli_bed = nullptr;
  container::Pod::Fragment* srv_frag = nullptr;
  container::Pod::Fragment* cli_frag = nullptr;  // Hostlo only
  container::Container* srv_container = nullptr;
  container::Container* cli_container = nullptr;  // Hostlo only
  vmm::Vm* srv_vm = nullptr;
  std::vector<core::HostloCni::EndpointInfo> hostlo_eps;
  std::uint16_t srv_port = 0, cli_port = 0;
  std::uint32_t msg_bytes = 0;
  std::shared_ptr<RrDriver> rr;
  std::shared_ptr<StreamDriver> stream;

  [[nodiscard]] bool ready() const {
    if (srv_container == nullptr) return false;
    if (mode != FlowMode::kHostloRr) return true;
    return cli_container != nullptr && hostlo_eps.size() == 2;
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

DatacenterMacroResult run_datacenter_macro(
    const DatacenterMacroConfig& config) {
  if (config.machines < 2) {
    throw std::invalid_argument("datacenter macro needs >= 2 machines");
  }
  if (config.shards < 1 || config.shards > config.machines) {
    throw std::invalid_argument("shards must be in [1, machines]");
  }

  DatacenterMacroResult out;
  out.shards = config.shards;

  sim::ShardedConductor conductor(config.shards,
                                  config.costs.fabric_hop_latency,
                                  config.max_workers);
  out.worker_threads = conductor.worker_threads();

  // ---- the fabric: one testbed per machine, pinned to its shard -------
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
    tc.machine.bridge_subnet = net::Ipv4Cidr(
        net::Ipv4Address(192, 168, std::uint8_t(100 + i), 0), 24);
    beds.push_back(std::make_unique<Testbed>(tc));
  }
  vmm::PhysicalSwitch fabric(conductor.shard(0), beds[0]->costs(),
                             net::Ipv4Cidr(net::Ipv4Address(10, 10, 0, 0),
                                           24),
                             &conductor);
  for (auto& bed : beds) fabric.attach(bed->machine());

  // ---- the population: schedule the Google-like trace -----------------
  trace::TraceConfig tcfg;
  // Decoupled from machine seeds via the canonical sub-stream derivation.
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

  // ---- live flows on the placement ------------------------------------
  std::vector<Flow> flows(std::size_t(config.flows));
  for (int k = 0; k < config.flows; ++k) {
    Flow& f = flows[std::size_t(k)];
    const int sm = vm_machine.empty()
                       ? k % m_count
                       : vm_machine[std::size_t(k) % vm_machine.size()];
    const int cm = (sm + 1 + k % (m_count - 1)) % m_count;
    f.srv_bed = beds[std::size_t(sm)].get();
    f.cli_bed = beds[std::size_t(cm)].get();
    f.srv_port = std::uint16_t(5000 + k);
    f.cli_port = std::uint16_t(20000 + k);
    const std::string fname = "f" + std::to_string(k);
    switch (k % 3) {
      case 0: {  // published-port container, TCP stream over the fabric
        f.mode = FlowMode::kNatStream;
        f.msg_bytes = config.stream_msg_bytes + 64 * std::uint32_t(k % 5);
        f.srv_vm = &f.srv_bed->create_vm_with_uplink(fname + "-srv");
        auto& pod = f.srv_bed->create_pod(fname + "-pod");
        f.srv_frag = &pod.add_fragment(*f.srv_vm);
        core::Cni::Options publish;
        publish.publish_ports = {f.srv_port};
        boot(*f.srv_bed, *f.srv_frag, fname + "-srv",
             f.srv_bed->nat_cni().attach_fn(publish), &f.srv_container);
        break;
      }
      case 1: {  // pod NIC on the host bridge, UDP RR over the fabric
        f.mode = FlowMode::kBrFusionRr;
        f.msg_bytes = config.rr_bytes + 16 * std::uint32_t(k % 7);
        f.srv_vm = &f.srv_bed->create_vm_with_uplink(fname + "-srv");
        auto& pod = f.srv_bed->create_pod(fname + "-pod");
        f.srv_frag = &pod.add_fragment(*f.srv_vm);
        boot(*f.srv_bed, *f.srv_frag, fname + "-srv",
             f.srv_bed->brfusion_cni().attach_fn({}), &f.srv_container);
        break;
      }
      case 2: {  // cross-VM pod on one machine, UDP RR over Hostlo
        f.mode = FlowMode::kHostloRr;
        f.cli_bed = f.srv_bed;  // Hostlo is intra-host by construction
        f.msg_bytes = config.rr_bytes + 16 * std::uint32_t(k % 7) + 8;
        vmm::Vm& vm_a = f.srv_bed->create_vm_with_uplink(fname + "-a");
        vmm::Vm& vm_b = f.srv_bed->create_vm_with_uplink(fname + "-b");
        auto& pod = f.srv_bed->create_pod(fname + "-pod");
        f.cli_frag = &pod.add_fragment(vm_a);
        f.srv_frag = &pod.add_fragment(vm_b);
        f.srv_vm = &vm_b;
        Flow* fp = &f;
        f.srv_bed->hostlo_cni().attach_pod(
            pod, [fp](std::vector<core::HostloCni::EndpointInfo> eps) {
              fp->hostlo_eps = std::move(eps);
            });
        boot(*f.srv_bed, *f.cli_frag, fname + "-cli", immediate_attach(),
             &f.cli_container);
        boot(*f.srv_bed, *f.srv_frag, fname + "-srv", immediate_attach(),
             &f.srv_container);
        break;
      }
    }
  }

  // ---- deployment: the conductor (and only the conductor) moves time --
  const sim::Duration step = sim::milliseconds(10);
  const sim::TimePoint deploy_limit = sim::seconds(120);
  auto all_ready = [&flows] {
    for (const Flow& f : flows) {
      if (!f.ready()) return false;
    }
    return true;
  };
  while (!all_ready()) {
    if (conductor.now() >= deploy_limit) {
      throw std::runtime_error("datacenter macro: deployment timed out");
    }
    conductor.run_until(conductor.now() + step);
  }

  // ---- traffic ---------------------------------------------------------
  const sim::TimePoint start_base = conductor.now() + sim::milliseconds(1);
  const sim::TimePoint stop_at = start_base + config.measure_window;
  for (int k = 0; k < config.flows; ++k) {
    Flow& f = flows[std::size_t(k)];
    sim::Rng flow_rng =
        sim::Rng::of_stream(config.seed, kFlowStreamBase + std::uint64_t(k));
    const sim::TimePoint start = start_base +
                                 std::uint64_t(k) * sim::microseconds(200) +
                                 flow_rng.uniform_int(0, 50000);
    switch (f.mode) {
      case FlowMode::kNatStream: {
        auto d = std::make_shared<StreamDriver>();
        d->cli_stack = &f.cli_bed->machine().stack();
        d->cli_app = &f.cli_bed->machine().make_app_core(
            "f" + std::to_string(k) + "-cli");
        d->cli_engine = &f.cli_bed->engine();
        d->cli_ip = f.cli_bed->machine().bridge_ip();
        // DNAT: the client dials the VM's published address.
        d->srv_service_ip = f.srv_vm->stack().iface_ip(
            f.srv_vm->stack().ifindex_of("eth0"));
        d->srv_port = f.srv_port;
        d->msg_bytes = f.msg_bytes;
        d->stop_at = stop_at;
        start_stream(d, *f.srv_frag->stack, *f.srv_container->app_core(),
                     start);
        f.stream = std::move(d);
        break;
      }
      case FlowMode::kBrFusionRr:
      case FlowMode::kHostloRr: {
        auto d = std::make_shared<RrDriver>();
        if (f.mode == FlowMode::kBrFusionRr) {
          d->cli_stack = &f.cli_bed->machine().stack();
          d->cli_app = &f.cli_bed->machine().make_app_core(
              "f" + std::to_string(k) + "-cli");
          d->cli_ip = f.cli_bed->machine().bridge_ip();
          // BrFusion: the pod NIC's own bridge-subnet address is routable
          // from every machine on the fabric.
          d->srv_service_ip = f.srv_frag->stack->iface_ip(
              f.srv_frag->stack->ifindex_of("eth0"));
          d->srv_local_ip = d->srv_service_ip;
        } else {
          d->cli_stack = f.cli_frag->stack.get();
          d->cli_app = f.cli_container->app_core();
          d->cli_ip = f.hostlo_eps[0].ip;
          d->srv_service_ip = f.hostlo_eps[1].ip;
          d->srv_local_ip = f.hostlo_eps[1].ip;
        }
        d->srv_stack = f.srv_frag->stack.get();
        d->srv_app = f.srv_container->app_core();
        d->cli_engine = &f.cli_bed->engine();
        d->cli_port = f.cli_port;
        d->srv_port = f.srv_port;
        d->bytes = f.msg_bytes;
        d->rng = flow_rng;
        d->stop_at = stop_at;
        start_rr(d, start);
        f.rr = std::move(d);
        break;
      }
    }
  }

  const auto wall0 = std::chrono::steady_clock::now();
  conductor.run_until(stop_at + sim::milliseconds(30));  // +drain
  const auto wall1 = std::chrono::steady_clock::now();
  out.wall_seconds =
      std::chrono::duration<double>(wall1 - wall0).count();

  // ---- results, aggregated in flow order so FP summation order is a
  // property of the scenario, not of the execution ----------------------
  int k = 0;
  for (Flow& f : flows) {
    double t = 0, lat = 0, bytes = 0;
    if (f.rr != nullptr) {
      t = double(f.rr->transactions);
      lat = double(f.rr->latency_ns_sum);
      out.rr_transactions += t;
      out.rr_latency_ns_sum += lat;
    }
    if (f.stream != nullptr) {
      bytes = double(*f.stream->delivered);
      out.stream_bytes_delivered += bytes;
      // The refill chain captures its own shared_ptr; break the cycle.
      if (f.stream->send_chain != nullptr) *f.stream->send_chain = nullptr;
    }
    out.flow_digest +=
        double(k + 1) * (t * 1e-3 + lat * 1e-9 + bytes * 1e-6);
    ++k;
  }
  out.events_total = conductor.total_events();
  out.per_shard_events = conductor.per_shard_events();
  static_cast<sim::ConductorStats&>(out) = conductor.stats();
  return out;
}

}  // namespace nestv::scenario
