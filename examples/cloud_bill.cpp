// Example: what cross-VM pods do to a cloud bill.
//
// Reproduces the paper's introductory pricing argument — "if your pod
// needs 6 vCPUs and 24GiB of memory, you must use a m5.2xlarge instance
// for $0.448/h [...] however a m5.large and a m5.xlarge total up for 6
// vCPUs and 24GiB for $0.336/h" — then scales it up to the full synthetic
// user population of fig 9.
//
//   $ ./examples/cloud_bill [seed]
#include <cstdio>

#include "orch/scheduler.hpp"
#include "sim/parse.hpp"
#include "trace/google_trace.hpp"

using namespace nestv;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? sim::parse_uint_or_exit(argv[1], "seed") : 2019;

  orch::AwsM5Catalog catalog;
  orch::KubernetesScheduler k8s(catalog);
  orch::HostloRescheduler hostlo(catalog);

  // --- the paper's motivating pod: 6 vCPU + 24 GiB -----------------------
  orch::UserWorkload intro;
  intro.user_id = 1;
  orch::PodSpec pod;
  pod.pod_id = 1;
  // Two containers: 2 vCPU/8GiB + 4 vCPU/16GiB (relative to 96/384).
  pod.containers = {{2.0 / 96, 8.0 / 384}, {4.0 / 96, 16.0 / 384}};
  intro.pods.push_back(pod);

  const auto base = k8s.schedule(intro);
  const auto improved = hostlo.improve(intro, base);
  std::printf("intro example (6 vCPU / 24 GiB pod):\n");
  std::printf("  whole-pod placement : %-14s  $%.3f/h\n",
              base.vms[0].model->name.c_str(), base.cost_per_hour());
  std::printf("  with Hostlo         : ");
  for (const auto& vm : improved.vms) {
    std::printf("%s ", vm.model->name.c_str());
  }
  std::printf(" $%.3f/h  (-%.1f%%)\n\n", improved.cost_per_hour(),
              100.0 * (1.0 - improved.cost_per_hour() /
                                 base.cost_per_hour()));

  // --- full population ----------------------------------------------------
  trace::TraceConfig tc;
  tc.seed = seed;
  const auto users = trace::generate_google_like_trace(tc);
  int savers = 0;
  double best_rel = 0.0;
  std::uint32_t best_user = 0;
  for (const auto& u : users) {
    const auto b = k8s.schedule(u);
    const auto h = hostlo.improve(u, b);
    const orch::SavingsRecord r{u.user_id, b.cost_per_hour(),
                                h.cost_per_hour()};
    if (r.absolute_saving() > 1e-9) {
      ++savers;
      if (r.relative_saving() > best_rel) {
        best_rel = r.relative_saving();
        best_user = u.user_id;
      }
    }
  }
  std::printf("across %zu users: %d benefit from cross-VM pods (%.1f%%); "
              "best case user %u saves %.1f%% of their bill\n",
              users.size(), savers,
              100.0 * savers / static_cast<double>(users.size()),
              best_user, 100.0 * best_rel);
  return 0;
}
