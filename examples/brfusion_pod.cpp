// Example: deploying a containerized web service behind BrFusion.
//
// Walks the full section 3 flow explicitly — orchestrator asks the VMM for
// a pod NIC over the management channel, the VMM hot-plugs it, the CNI
// moves it into the pod namespace — then contrasts an NGINX deployment on
// the vanilla bridge+NAT datapath with the fused one, including the guest
// CPU relief of fig 6/7.
//
//   $ ./examples/brfusion_pod [seed]
#include <cstdio>

#include "scenario/single_server.hpp"
#include "sim/parse.hpp"
#include "workload/apps.hpp"

using namespace nestv;

namespace {

void run_one(scenario::ServerMode mode, std::uint64_t seed) {
  scenario::TestbedConfig config;
  config.seed = seed;
  auto s = scenario::make_single_server(mode, 80, config);

  std::printf("== %s\n", to_string(mode));
  std::printf("   service address  : %s\n",
              s.server.service_ip.to_string().c_str());
  std::printf("   pod/bind address : %s\n",
              s.server.local_ip.to_string().c_str());
  if (s.srv_container != nullptr) {
    std::printf("   container boot   : %s\n",
                sim::format_duration(s.boot_duration).c_str());
  }

  auto d = workload::deploy_nginx(s.client, s.server, 80, sim::Rng(seed),
                                  {});
  s.bed->run_for(sim::milliseconds(20));
  s.bed->machine().ledger().reset_all();
  const auto t0 = s.bed->engine().now();
  const auto r = d.open_client->run(s.bed->engine(), sim::milliseconds(300));
  const auto wall = s.bed->engine().now() - t0;

  std::printf("   wrk2 10k req/s   : mean %.1f us, p99 %.1f us\n",
              r.mean_latency_us, r.p99_latency_us);
  const auto* vm = s.bed->machine().ledger().find("vm/vm1");
  if (vm != nullptr) {
    std::printf("   VM CPU (cores)   : usr %.3f  sys %.3f  soft %.3f\n",
                vm->cores(sim::CpuCategory::kUsr, wall),
                vm->cores(sim::CpuCategory::kSys, wall),
                vm->cores(sim::CpuCategory::kSoft, wall));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 42;
  std::printf("BrFusion example: NGINX pod behind bridge+NAT vs a fused "
              "per-pod NIC\n\n");
  run_one(scenario::ServerMode::kNat, seed);
  run_one(scenario::ServerMode::kBrFusion, seed);
  std::printf("Note the vanished guest softirq share: BrFusion removed the "
              "in-VM bridge and netfilter hooks (paper section 5.2.3).\n");
  return 0;
}
