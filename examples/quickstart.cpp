// Quickstart: build a NuevoMatch classifier over a small hand-written
// rule-set (the paper's Figure 2) and classify a packet.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: rules -> build -> match,
// plus the introspection calls (coverage, memory, search error).
#include <cstdio>
#include <memory>

#include "common/prefix.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "tuplemerge/tuplemerge.hpp"

using namespace nuevomatch;

int main() {
  // --- 1. Describe rules (Figure 2 of the paper) --------------------------
  // Fields: src IP, dst IP, src port, dst port, protocol. Lower priority
  // value wins. prefix_to_range converts "10.10.0.0/16"-style prefixes.
  RuleSet rules(5);
  auto set_rule = [&](size_t i, Range dst_ip, Range dst_port) {
    for (int f = 0; f < kNumFields; ++f) rules[i].field[static_cast<size_t>(f)] = full_range(f);
    rules[i].field[kDstIp] = dst_ip;
    rules[i].field[kDstPort] = dst_port;
  };
  set_rule(0, prefix_to_range(*parse_ipv4("10.10.0.0"), 16), Range{10, 18});
  set_rule(1, prefix_to_range(*parse_ipv4("10.10.1.0"), 24), Range{15, 25});
  set_rule(2, prefix_to_range(*parse_ipv4("10.0.0.0"), 8), Range{5, 8});
  set_rule(3, prefix_to_range(*parse_ipv4("10.10.3.0"), 24), Range{7, 20});
  set_rule(4, prefix_to_range(*parse_ipv4("10.10.3.100"), 32), Range{19, 19});
  canonicalize(rules);  // id = priority = position

  // --- 2. Build NuevoMatch ------------------------------------------------
  // NuevoMatch accelerates an existing classifier: pick the remainder
  // backend via the factory. TupleMerge also gives O(1) rule updates.
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm{cfg};
  nm.build(rules);

  // --- 3. Classify ---------------------------------------------------------
  Packet p;
  p.field[kDstIp] = *parse_ipv4("10.10.3.100");
  p.field[kDstPort] = 19;
  p.field[kProto] = 6;
  const MatchResult r = nm.match(p);
  std::printf("packet 10.10.3.100:19 -> rule R%d (priority %d)\n", r.rule_id,
              r.priority);
  // The paper's Figure 2: R3 and R4 both match; R3 wins on priority.

  // --- 4. Introspect -------------------------------------------------------
  std::printf("iSets: %zu, coverage %.0f%%, remainder %zu rules\n", nm.isets().size(),
              nm.coverage() * 100.0, nm.remainder_size());
  std::printf("index memory: %zu bytes, worst-case search distance: %u\n",
              nm.memory_bytes(), nm.max_search_error());
  return r.rule_id == 3 ? 0 : 1;
}
