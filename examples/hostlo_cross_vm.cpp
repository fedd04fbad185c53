// Example: disaggregating a pod across two VMs with Hostlo.
//
// Builds the section 4 topology by hand — a pod with one fragment per VM,
// a Hostlo requested from the VMM, endpoints used as the pod's shared
// localhost — then compares intra-pod request/response traffic against the
// SameNode baseline and the Docker-Overlay alternative.
//
//   $ ./examples/hostlo_cross_vm [seed]
#include <cstdio>

#include "scenario/cross_vm.hpp"
#include "sim/parse.hpp"
#include "workload/netperf.hpp"

using namespace nestv;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 42;

  std::printf("Hostlo example: one pod, two VMs, one shared localhost\n\n");

  // Show the control-plane flow once, explicitly.
  {
    scenario::TestbedConfig config;
    config.seed = seed;
    scenario::Testbed bed(config);
    vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
    vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
    container::Pod& pod = bed.create_pod("analytics");
    pod.add_fragment(vm1);
    pod.add_fragment(vm2);

    std::vector<core::HostloCni::EndpointInfo> eps;
    bed.hostlo_cni().attach_pod(
        pod, [&](std::vector<core::HostloCni::EndpointInfo> e) {
          eps = std::move(e);
        });
    bed.run_until_ready([&eps] { return !eps.empty(); });

    std::printf("orchestrator -> VMM messages : %llu\n",
                static_cast<unsigned long long>(
                    bed.channel().messages_sent()));
    std::printf("hostlos created by the VMM   : %llu\n",
                static_cast<unsigned long long>(bed.vmm().hostlos_created()));
    for (const auto& ep : eps) {
      std::printf("endpoint in %-4s             : %s (%s)\n",
                  ep.fragment->vm->name().c_str(),
                  ep.ip.to_string().c_str(), ep.mac.to_string().c_str());
    }
    std::printf("\n");
  }

  // Compare the three intra-pod datapaths.
  std::printf("%-9s %14s %16s\n", "mode", "rr-lat (us)", "stream (Mbps)");
  for (const auto mode :
       {scenario::CrossVmMode::kSameNode, scenario::CrossVmMode::kHostlo,
        scenario::CrossVmMode::kOverlay}) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_cross_vm(mode, 6001, config);
    workload::Netperf np(s.bed->engine(), s.client, s.server, 6001);
    const auto rr = np.run_udp_rr(256, sim::milliseconds(200));
    const auto st = np.run_tcp_stream(1024, sim::milliseconds(300));
    std::printf("%-9s %14.1f %16.0f\n", to_string(mode),
                rr.mean_latency_us, st.throughput_mbps);
  }
  std::printf("\nHostlo's latency sits close to the pod-local baseline "
              "while overlay pays encapsulation on every transaction "
              "(paper fig 10).\n");
  return 0;
}
