// ACL firewall scenario: a virtual network function filtering traffic with a
// large access-control list (the paper's motivating workload, §1). Generates
// a ClassBench-style ACL, accelerates TupleMerge with NuevoMatch, and
// compares throughput and index memory on a uniform trace.
//
//   $ ./acl_firewall [n_rules]          (default 50000)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "classbench/generator.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

using namespace nuevomatch;

namespace {

double throughput_mpps(const Classifier& cls, const std::vector<Packet>& trace) {
  int64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Packet& p : trace) sink += cls.match(p).rule_id;
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  static volatile int64_t g_sink; g_sink = sink; (void)g_sink;
  return static_cast<double>(trace.size()) * 1e3 / ns;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 50'000;
  std::printf("generating ACL rule-set with %zu rules...\n", n);
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, n, 1);

  TraceConfig tc;
  tc.n_packets = 200'000;
  const auto trace = generate_trace(rules, tc);

  std::printf("building TupleMerge baseline...\n");
  TupleMerge tm;
  tm.build(rules);

  std::printf("building NuevoMatch (TupleMerge remainder)...\n");
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.max_isets = 4;
  NuevoMatch nm{cfg};
  const auto b0 = std::chrono::steady_clock::now();
  nm.build(rules);
  const auto build_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - b0)
                            .count();

  std::printf("\n%-22s %12s %14s\n", "engine", "Mpps", "index bytes");
  std::printf("%-22s %12.2f %14zu\n", "tuplemerge", throughput_mpps(tm, trace),
              tm.memory_bytes());
  std::printf("%-22s %12.2f %14zu\n", nm.name().c_str(), throughput_mpps(nm, trace),
              nm.memory_bytes());
  std::printf("\nnm: coverage %.1f%% across %zu iSets, remainder %zu rules, "
              "trained in %lld ms\n",
              nm.coverage() * 100.0, nm.isets().size(), nm.remainder_size(),
              static_cast<long long>(build_ms));
  std::printf("compression: %.1fx smaller index\n",
              static_cast<double>(tm.memory_bytes()) /
                  static_cast<double>(nm.memory_bytes()));
  return 0;
}
