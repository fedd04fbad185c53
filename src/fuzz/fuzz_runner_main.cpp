// fuzz_runner: drive the scenario fuzzer over a seed range.
//
// Normal mode scans seeds and exits non-zero if any oracle or invariant
// fails; --minimize additionally shrinks each failure and emits a
// self-contained regression test into the corpus directory.
//
// --inject-bug {shards|lookahead|batch|flowcache|faststack|oncache} flips
// the matching test hook and
// INVERTS the exit semantics: the run succeeds (exit 0) only if at least
// one seed in the range makes the oracle detect the injected divergence.
// This is how CI proves the fuzzer can actually catch the bug classes it
// exists for.
//
// Usage:
//   fuzz_runner [--seeds A..B] [--time-budget SECONDS] [--minimize]
//               [--out-dir DIR] [--inject-bug NAME] [--quiet]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

#include "fuzz/minimize.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/plan.hpp"
#include "sim/parse.hpp"
#include "sim/test_hooks.hpp"

namespace {

struct Options {
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 50;  // exclusive
  double time_budget = 0;       // seconds; 0 = unlimited
  bool minimize = false;
  bool quiet = false;
  std::string out_dir = "tests/fuzz_corpus";
  std::string inject;  // "", "shards", "lookahead", "batch", "flowcache",
                       // "faststack", "oncache"
};

bool parse_seeds(const std::string& arg, Options& opt) {
  const auto dots = arg.find("..");
  if (dots == std::string::npos) return false;
  const std::string_view text(arg);
  const auto begin = nestv::sim::parse_uint(text.substr(0, dots));
  const auto end = nestv::sim::parse_uint(text.substr(dots + 2));
  if (!begin || !end || *end < *begin) return false;
  opt.seed_begin = *begin;
  opt.seed_end = *end;
  return true;
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "fuzz_runner: %s\n"
               "usage: fuzz_runner [--seeds A..B] [--time-budget S] "
               "[--minimize] [--out-dir DIR] [--inject-bug "
               "shards|lookahead|batch|flowcache|faststack|oncache] "
               "[--quiet]\n",
               msg);
  std::exit(2);
}

bool apply_injection(const std::string& name) {
  namespace hooks = nestv::sim::test_hooks;
  if (name == "shards") {
    hooks::unkeyed_wire_delivery = true;
  } else if (name == "lookahead") {
    hooks::lookahead_matrix_overrun = true;
  } else if (name == "batch") {
    hooks::force_virtio_batching = true;
  } else if (name == "flowcache") {
    hooks::skip_flowcache_rule_invalidation = true;
  } else if (name == "faststack") {
    hooks::faststack_dup_udp_delivery = true;
  } else if (name == "oncache") {
    hooks::skip_oncache_rule_invalidation = true;
  } else {
    return false;
  }
  return true;
}

std::uint32_t injection_oracle_mask(const std::string& name) {
  if (name == "shards") return nestv::fuzz::kOracleShards;
  if (name == "lookahead") return nestv::fuzz::kOracleShards;
  if (name == "batch") return nestv::fuzz::kOracleBatch;
  if (name == "flowcache") return nestv::fuzz::kOracleFlowcache;
  if (name == "faststack") return nestv::fuzz::kOracleBackend;
  if (name == "oncache") return nestv::fuzz::kOracleOncache;
  return nestv::fuzz::kOracleAll;
}

/// The oracle expected to catch an injected bug class (the fast-path
/// duplication bug surfaces in the "backend" oracle; a lookahead-matrix
/// overrun surfaces as a shards-oracle divergence).
std::string injection_oracle_name(const std::string& name) {
  if (name == "faststack") return "backend";
  if (name == "lookahead") return "shards";
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value");
      return argv[++i];
    };
    if (arg == "--seeds") {
      if (!parse_seeds(value(), opt)) usage_error("bad --seeds range");
    } else if (arg == "--time-budget") {
      const auto budget = nestv::sim::parse_nonneg_double(value());
      if (!budget) usage_error("bad --time-budget");
      opt.time_budget = *budget;
    } else if (arg == "--minimize") {
      opt.minimize = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--inject-bug") {
      opt.inject = value();
      if (injection_oracle_mask(opt.inject) == nestv::fuzz::kOracleAll) {
        usage_error("unknown --inject-bug");
      }
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      usage_error(("unknown argument: " + arg).c_str());
    }
  }

  nestv::sim::test_hooks::reset();
  if (!opt.inject.empty()) apply_injection(opt.inject);

  const auto wall0 = std::chrono::steady_clock::now();
  std::uint64_t ran = 0, failed = 0, detected = 0;
  for (std::uint64_t seed = opt.seed_begin; seed < opt.seed_end; ++seed) {
    if (opt.time_budget > 0) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wall0)
                                 .count();
      if (elapsed >= opt.time_budget) {
        std::printf("time budget exhausted after %llu seeds\n",
                    static_cast<unsigned long long>(ran));
        break;
      }
    }
    nestv::fuzz::CaseSpec spec;
    spec.seed = seed;
    // Injection runs confine themselves to the oracle built to catch the
    // injected class — detections elsewhere would be accidental.
    spec.oracle_mask = injection_oracle_mask(opt.inject);
    const nestv::fuzz::CaseResult result = nestv::fuzz::run_case(spec);
    ++ran;
    if (result.clean()) continue;

    ++failed;
    if (!opt.inject.empty() &&
        result.failed(injection_oracle_name(opt.inject))) {
      ++detected;
    }
    if (!opt.quiet) {
      std::printf("seed %llu FAILED:\n%s%s",
                  static_cast<unsigned long long>(seed),
                  result.report().c_str(),
                  nestv::fuzz::generate_plan(seed).describe().c_str());
    }
    if (opt.minimize) {
      const auto min = nestv::fuzz::minimize(spec);
      if (min.has_value()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.out_dir, ec);
        const std::string path = opt.out_dir + "/seed_" +
                                 std::to_string(seed) + "_" + min->oracle +
                                 ".cpp";
        if (nestv::fuzz::emit_corpus_test(min->spec, min->oracle,
                                          opt.inject, path)) {
          std::printf(
              "seed %llu minimized (%d runs) -> %s\n  flows=0x%llx "
              "actions=0x%llx: %s\n",
              static_cast<unsigned long long>(seed), min->runs,
              path.c_str(),
              static_cast<unsigned long long>(min->spec.flow_mask),
              static_cast<unsigned long long>(min->spec.action_mask),
              min->detail.c_str());
        } else {
          std::fprintf(stderr, "seed %llu: cannot write %s\n",
                       static_cast<unsigned long long>(seed), path.c_str());
        }
      }
    }
    // One demonstrated detection is the injection run's goal; keep the
    // smoke job fast.
    if (!opt.inject.empty() && detected > 0) break;
  }

  if (!opt.inject.empty()) {
    std::printf("injected '%s': %llu/%llu seeds diverged\n",
                opt.inject.c_str(),
                static_cast<unsigned long long>(detected),
                static_cast<unsigned long long>(ran));
    return detected > 0 ? 0 : 1;
  }
  std::printf("%llu seeds, %llu failed\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}
