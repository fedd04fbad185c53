// Example: observability tooling — ping the datapaths and capture traffic
// to a real pcap file you can open with tcpdump/wireshark.
//
//   $ ./examples/capture_and_ping [seed] [pcap-path]
//   $ tcpdump -r /tmp/nestv_brfusion.pcap | head
#include <cstdio>

#include "net/pcap.hpp"
#include "scenario/single_server.hpp"
#include "sim/parse.hpp"
#include "workload/netperf.hpp"

using namespace nestv;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 42;
  const std::string pcap_path =
      argc > 2 ? argv[2] : "/tmp/nestv_brfusion.pcap";

  std::printf("observability demo: ping + pcap capture\n\n");

  // Ping every deployment flavour: in-kernel echo isolates the pure
  // datapath latency (no app wakeups, no syscalls).
  std::printf("%-10s %14s\n", "mode", "ping rtt (us)");
  for (const auto mode :
       {scenario::ServerMode::kNoCont, scenario::ServerMode::kNat,
        scenario::ServerMode::kBrFusion}) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_single_server(mode, 5001, config);
    // Warm ARP, then measure.
    s.bed->machine().stack().ping(s.server.service_ip, 56, {});
    s.bed->run_for(sim::milliseconds(5));
    double rtt_us = 0;
    s.bed->machine().stack().ping(
        s.server.service_ip, 56,
        [&rtt_us](sim::Duration d) { rtt_us = sim::to_microseconds(d); });
    s.bed->run_for(sim::milliseconds(5));
    std::printf("%-10s %14.1f\n", to_string(mode), rtt_us);
  }

  // Capture a short BrFusion exchange as seen from the host stack.
  {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_single_server(scenario::ServerMode::kBrFusion,
                                          5001, config);
    net::PcapWriter writer(pcap_path);
    s.bed->machine().stack().attach_capture(&writer);
    workload::Netperf np(s.bed->engine(), s.client, s.server, 5001);
    np.run_udp_rr(256, sim::milliseconds(2));
    s.bed->machine().stack().attach_capture(nullptr);
    writer.flush();
    std::printf("\nwrote %llu frames to %s (open with tcpdump/wireshark)\n",
                static_cast<unsigned long long>(writer.frames_written()),
                writer.path().c_str());
  }
  return 0;
}
