#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "classbench/generator.hpp"
#include "common/rng.hpp"
#include "oracle_check.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

using testing_support::expect_floor_consistency;
using testing_support::expect_matches_oracle;

struct TmCase {
  AppClass app;
  int variant;
  size_t n;
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const TmCase& c) {
    return os << ruleset_name(c.app, c.variant) << "_n" << c.n << "_s" << c.seed;
  }
};

class TupleMergeOracle : public ::testing::TestWithParam<TmCase> {};

TEST_P(TupleMergeOracle, MatchesLinearSearch) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  TupleMerge tm;
  tm.build(rules);
  expect_matches_oracle(tm, rules);
}

TEST_P(TupleMergeOracle, TssMatchesLinearSearch) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, c.seed);
  TupleSpaceSearch tss;
  tss.build(rules);
  expect_matches_oracle(tss, rules);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TupleMergeOracle,
                         ::testing::Values(TmCase{AppClass::kAcl, 1, 1000, 1},
                                           TmCase{AppClass::kAcl, 3, 3000, 2},
                                           TmCase{AppClass::kFw, 1, 1000, 3},
                                           TmCase{AppClass::kFw, 4, 3000, 4},
                                           TmCase{AppClass::kIpc, 1, 2000, 5},
                                           TmCase{AppClass::kIpc, 2, 500, 6}));

TEST(TupleMerge, FloorConsistency) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 2, 1500, 7);
  TupleMerge tm;
  tm.build(rules);
  expect_floor_consistency(tm, rules);
}

TEST(TupleMerge, MergingUsesFewerTablesThanTss) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 5000, 8);
  TupleMerge tm;
  TupleSpaceSearch tss;
  tm.build(rules);
  tss.build(rules);
  EXPECT_LT(tm.num_tables(), tss.num_tables());
  EXPECT_GT(tm.num_tables(), 0u);
}

TEST(TupleMerge, InsertThenMatch) {
  RuleSet rules = generate_classbench(AppClass::kAcl, 1, 500, 9);
  TupleMerge tm;
  tm.build(rules);
  Rule fresh;
  for (int f = 0; f < kNumFields; ++f) fresh.field[static_cast<size_t>(f)] = full_range(f);
  fresh.field[kDstIp] = Range{0x01020304, 0x01020304};
  fresh.id = 100000;
  fresh.priority = -5;  // best priority
  ASSERT_TRUE(tm.insert(fresh));
  Packet p{};
  p.field[kDstIp] = 0x01020304;
  EXPECT_EQ(tm.match(p).rule_id, 100000);
  EXPECT_EQ(tm.size(), rules.size() + 1);
}

TEST(TupleMerge, EraseRemovesOnlyTarget) {
  RuleSet rules = generate_classbench(AppClass::kFw, 2, 800, 10);
  TupleMerge tm;
  tm.build(rules);
  LinearSearch oracle;
  oracle.build(rules);
  // Erase 50 random rules from both, then compare.
  Rng rng{11};
  for (int i = 0; i < 50; ++i) {
    const auto victim = static_cast<uint32_t>(rng.below(rules.size()));
    const bool a = tm.erase(victim);
    const bool b = oracle.erase(victim);
    EXPECT_EQ(a, b);
  }
  // Compare the two post-erase instances directly on a trace drawn from the
  // original set (erased rules' packets now hit their next-best match).
  TraceConfig tc;
  tc.n_packets = 1500;
  tc.seed = 13;
  for (const Packet& p : generate_trace(rules, tc))
    EXPECT_EQ(tm.match(p).rule_id, oracle.match(p).rule_id);
}

// Regression (found by the churn serializer tests): erasing a table's BEST
// rule raises that table's best_priority, and the table array must be
// re-sorted or match_with_floor's early-termination break skips later
// tables that still hold better matches — plain match() misses live rules.
TEST(TupleMerge, EraseOfTableBestKeepsFloorSearchExact) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 1200, 51);
  TupleMerge tm;
  tm.build(rules);
  // Erase the globally best rules one by one: each erase is maximally likely
  // to raise some table's best_priority past its neighbors'.
  std::vector<uint32_t> order;
  for (const Rule& r : rules) order.push_back(r.id);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rules[a].priority < rules[b].priority;
  });
  LinearSearch oracle;
  oracle.build(rules);
  TraceConfig tc;
  tc.n_packets = 800;
  tc.seed = 52;
  const auto trace = generate_trace(rules, tc);
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_EQ(tm.erase(order[i]), oracle.erase(order[i]));
    for (const Packet& p : trace) {
      ASSERT_EQ(tm.match(p).rule_id, oracle.match(p).rule_id)
          << "after erasing the " << i << " best rules: " << to_string(p);
    }
    expect_floor_consistency(tm, rules, 60 + i);
  }
}

// Equal priorities must resolve to the smaller rule id, as types.hpp promises
// and LinearSearch does: 64 rules share each priority here, so a probe that
// stops at the first table or bucket entry that only TIES the running best
// (instead of one that cannot beat it) returns the wrong twin. Checked after
// build, after inserts (which land in table overflow regions) and after
// erases, for plain and floored lookups.
TEST(TupleMerge, EqualPrioritiesResolveBySmallerId) {
  RuleSet rules = generate_classbench(AppClass::kAcl, 1, 5000, 61);
  for (Rule& r : rules) r.priority = static_cast<int32_t>(r.id / 64);
  // Built from the first 4000; the last 1000 arrive as inserts.
  const RuleSet first(rules.begin(), rules.begin() + 4000);
  TupleMerge tm;
  tm.build(first);
  LinearSearch oracle;
  oracle.build(first);
  TraceConfig tc;
  tc.n_packets = 3000;
  tc.seed = 62;
  const auto trace = generate_trace(rules, tc);
  const auto check = [&](const char* stage) {
    for (const Packet& p : trace) {
      const MatchResult want = oracle.match(p);
      ASSERT_EQ(tm.match(p).rule_id, want.rule_id) << stage << ": " << to_string(p);
      if (!want.hit()) continue;
      for (const int32_t floor : {want.priority, want.priority + 1, want.priority + 64}) {
        ASSERT_EQ(tm.match_with_floor(p, floor).rule_id,
                  oracle.match_with_floor(p, floor).rule_id)
            << stage << ", floor " << floor << ": " << to_string(p);
      }
    }
  };
  check("build");
  for (size_t i = 4000; i < rules.size(); ++i) {
    ASSERT_TRUE(tm.insert(rules[i]));
    ASSERT_TRUE(oracle.insert(rules[i]));
  }
  check("insert");
  // Enough erases that dead rule slots outnumber live ones, so the rule
  // array is compacted and later erases go through renumbered positions.
  Rng rng{63};
  for (int i = 0; i < 6000; ++i) {
    const auto victim = static_cast<uint32_t>(rng.below(rules.size()));
    ASSERT_EQ(tm.erase(victim), oracle.erase(victim));
  }
  ASSERT_LT(tm.size(), rules.size() / 2);
  check("erase");
  EXPECT_EQ(tm.size(), oracle.size());
}

// A snapshot answers exactly like its source, ties included, after inserts
// (overflow regions merged into buckets), erases (tombstones dropped), and
// table splits and rehashes. Each round's snapshot reuses the previous
// one's untouched pages, so a page that missed an update would show here.
TEST(TupleMerge, SnapshotMatchesSourceThroughChurn) {
  RuleSet rules = generate_classbench(AppClass::kFw, 1, 3000, 64);
  for (Rule& r : rules) r.priority = static_cast<int32_t>(r.id / 8);
  TupleMerge tm;
  tm.build({rules.data(), 1000});
  TraceConfig tc;
  tc.n_packets = 2000;
  tc.seed = 66;
  const auto trace = generate_trace(rules, tc);
  Rng rng{65};
  TupleMergeSnapshot snap = tm.snapshot();
  for (int round = 0; round < 8; ++round) {
    for (size_t i = 1000 + static_cast<size_t>(round) * 250; i < 1250 + static_cast<size_t>(round) * 250; ++i)
      ASSERT_TRUE(tm.insert(rules[i]));
    for (int i = 0; i < 150; ++i) tm.erase(static_cast<uint32_t>(rng.below(rules.size())));
    snap = tm.snapshot(&snap);
    ASSERT_EQ(snap.size(), tm.size());
    for (const Packet& p : trace) {
      const MatchResult want = tm.match(p);
      ASSERT_EQ(snap.match(p).rule_id, want.rule_id) << "round " << round << ": " << to_string(p);
      if (want.hit())
        ASSERT_EQ(snap.match_with_floor(p, want.priority).rule_id,
                  tm.match_with_floor(p, want.priority).rule_id);
    }
  }
  EXPECT_EQ(tm.live_rules().size(), tm.size());
}

// Masks are built ahead of time, so their shifts run at the width edges:
// len 0 (keep nothing) and len >= width (keep everything) must not shift by
// 32, and every length in between keeps exactly the top `len` field bits.
TEST(TupleKeyHash, FieldMasksAtWidthEdges) {
  TupleMask t;
  t.len = {0, 32, 16, 0, 8};
  EXPECT_EQ(field_masks(t), (FieldMasks{0u, ~0u, ~0u, 0u, ~0u}));
  t.len = {1, 31, 1, 15, 7};
  EXPECT_EQ(field_masks(t), (FieldMasks{0x80000000u, 0xFFFFFFFEu, 0xFFFF8000u, 0xFFFFFFFEu,
                                        0xFFFFFFFEu}));
  // A probe key equals the rule key for every value inside the prefix.
  t.len = {24, 8, 16, 0, 8};
  const FieldMasks m = field_masks(t);
  const TupleKey k = masked_key({0x0A0B0CFFu, 0xC0A80001u, 80, 443, 6}, m);
  EXPECT_EQ(k, (TupleKey{0x0A0B0C00u, 0xC0000000u, 80, 0, 6}));
}

// Buckets are the hash's low bits, and masked keys end in runs of zero
// bits (IPs cut to /8../24, wildcard ports and proto). Over a few thousand
// such keys the number of occupied buckets must be what random placement
// gives, n(1 - e^(-k/n)), within 10%, at every bucket count a table uses.
// A hash whose low bits depend only on the key's low bits fails this badly.
TEST(TupleKeyHash, OccupancyMatchesBallsInBins) {
  const std::pair<int, int> lens[] = {{8, 8},  {8, 16},  {8, 24},  {16, 8}, {16, 16},
                                      {16, 24}, {24, 8}, {24, 16}, {24, 24}, {0, 16},
                                      {0, 24},  {16, 0}, {24, 0}};
  Rng rng{71};
  for (const auto& [src_len, dst_len] : lens) {
    TupleMask t;
    t.len = {static_cast<uint8_t>(src_len), static_cast<uint8_t>(dst_len), 0, 0, 0};
    const FieldMasks m = field_masks(t);
    std::set<TupleKey> keys;
    while (keys.size() < 3000)
      keys.insert(masked_key({rng.next_u32(), rng.next_u32(), rng.next_u32() & 0xFFFF,
                              rng.next_u32() & 0xFFFF, rng.next_u32() & 0xFF},
                             m));
    const double k = static_cast<double>(keys.size());
    for (int log_n = 6; log_n <= 16; ++log_n) {
      const size_t n = size_t{1} << log_n;
      std::vector<uint8_t> used(n, 0);
      for (const TupleKey& key : keys) used[hash_key(key) & (n - 1)] = 1;
      const double occupied = static_cast<double>(std::count(used.begin(), used.end(), 1));
      const double expected = static_cast<double>(n) * (1.0 - std::exp(-k / static_cast<double>(n)));
      EXPECT_NEAR(occupied, expected, 0.1 * expected)
          << "src /" << src_len << " dst /" << dst_len << ", " << n << " buckets";
    }
  }
}

TEST(TupleMerge, SupportsUpdatesFlag) {
  TupleMerge tm;
  EXPECT_TRUE(tm.supports_updates());
}

TEST(TupleMerge, MemoryGrowsWithRules) {
  TupleMerge small;
  TupleMerge big;
  small.build(generate_classbench(AppClass::kAcl, 1, 500, 14));
  big.build(generate_classbench(AppClass::kAcl, 1, 5000, 14));
  EXPECT_GT(big.memory_bytes(), small.memory_bytes());
}

TEST(TupleMerge, EmptyRuleSet) {
  TupleMerge tm;
  tm.build({});
  EXPECT_FALSE(tm.match(Packet{}).hit());
  EXPECT_EQ(tm.size(), 0u);
}

TEST(TupleMerge, CollisionLimitTriggersSplit) {
  // Many rules sharing one relaxed tuple but distinct exact tuples: the
  // collision limit must spill them into exact tables.
  RuleSet rules;
  for (uint32_t i = 0; i < 200; ++i) {
    Rule r;
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
    // Same /24 block -> same masked key in a /24-relaxed table.
    r.field[kDstIp] = Range{0x0A0A0A00u + i, 0x0A0A0A00u + i};
    rules.push_back(r);
  }
  canonicalize(rules);
  TupleMergeConfig cfg;
  cfg.collision_limit = 8;
  cfg.ip_len_granularity = 8;
  TupleMerge tm{cfg};
  tm.build(rules);
  expect_matches_oracle(tm, rules, 1000, 15);
}

}  // namespace
}  // namespace nuevomatch
