// IsetIndex: RQ-RMI-backed single-field index with secondary search and
// multi-field validation (paper Figure 1 left path).
#include <gtest/gtest.h>

#include "classbench/generator.hpp"
#include "common/rng.hpp"
#include "isets/iset_index.hpp"
#include "isets/partition.hpp"
#include "trace/trace.hpp"

namespace nuevomatch {
namespace {

/// Build an iSet index over the largest iSet of a generated rule-set.
struct Fixture {
  RuleSet all;
  IsetIndex index;
  std::vector<Rule> iset_rules;
  int field = 0;

  explicit Fixture(AppClass app, size_t n, uint64_t seed) {
    all = generate_classbench(app, 1, n, seed);
    IsetPartitionConfig pc;
    pc.max_isets = 1;
    pc.min_coverage_fraction = 0.01;
    IsetPartition part = partition_rules(all, pc);
    EXPECT_FALSE(part.isets.empty());
    field = part.isets[0].field;
    iset_rules = part.isets[0].rules;
    auto cfg = rqrmi::default_config(iset_rules.size());
    cfg.seed = seed;
    index.build(field, iset_rules, cfg);
  }
};

TEST(IsetIndex, FindsEveryOwnRule) {
  Fixture fx{AppClass::kAcl, 2000, 5};
  const auto pkts = representative_packets(fx.iset_rules, 17);
  for (size_t i = 0; i < fx.iset_rules.size(); ++i) {
    const MatchResult r = fx.index.lookup(pkts[i]);
    // The packet matches rule i on the indexed field by construction; the
    // index must return it (no other iSet rule can contain the same value).
    ASSERT_TRUE(r.hit()) << "rule " << fx.iset_rules[i].id;
    EXPECT_EQ(static_cast<uint32_t>(r.rule_id), fx.iset_rules[i].id);
  }
}

TEST(IsetIndex, ValidationRejectsWrongOtherFields) {
  Fixture fx{AppClass::kAcl, 1000, 6};
  // Find a rule with a non-wildcard port; flip the packet's port outside.
  for (const Rule& r : fx.iset_rules) {
    if (r.field[kDstPort].hi < 0xFFFF || r.field[kDstPort].lo > 0) {
      Packet p;
      for (int f = 0; f < kNumFields; ++f)
        p.field[static_cast<size_t>(f)] = r.field[static_cast<size_t>(f)].lo;
      p.field[kDstPort] = r.field[kDstPort].hi < 0xFFFF ? r.field[kDstPort].hi + 1
                                                        : r.field[kDstPort].lo - 1;
      const MatchResult m = fx.index.lookup(p);
      if (m.hit()) {
        EXPECT_NE(static_cast<uint32_t>(m.rule_id), r.id);
      }
      return;
    }
  }
  GTEST_SKIP() << "no port-constrained rule in sample";
}

TEST(IsetIndex, MissOnUncoveredKey) {
  // Two far-apart exact values: keys between them must miss.
  RuleSet rules(2);
  for (auto& r : rules)
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  rules[0].field[kDstIp] = Range{100, 200};
  rules[1].field[kDstIp] = Range{0xF0000000, 0xF0000100};
  canonicalize(rules);
  IsetIndex idx;
  idx.build(kDstIp, rules, rqrmi::default_config(2));
  Packet p;
  p.field[kDstIp] = 5000;
  EXPECT_FALSE(idx.lookup(p).hit());
  p.field[kDstIp] = 150;
  EXPECT_TRUE(idx.lookup(p).hit());
}

TEST(IsetIndex, StagedApiAgreesWithLookup) {
  Fixture fx{AppClass::kIpc, 1500, 8};
  const auto pkts = representative_packets(fx.iset_rules, 23);
  for (size_t i = 0; i < pkts.size(); i += 7) {
    const uint32_t v = pkts[i][fx.field];
    const auto pred = fx.index.predict(v);
    const int32_t pos = fx.index.search(v, pred);
    const MatchResult staged = fx.index.validate(pos, pkts[i]);
    const MatchResult direct = fx.index.lookup(pkts[i]);
    EXPECT_EQ(staged.rule_id, direct.rule_id);
  }
}

TEST(IsetIndex, EraseTombstonesRule) {
  Fixture fx{AppClass::kAcl, 800, 9};
  const auto pkts = representative_packets(fx.iset_rules, 31);
  const Rule& victim = fx.iset_rules[fx.iset_rules.size() / 2];
  ASSERT_TRUE(fx.index.erase(victim.id));
  EXPECT_EQ(fx.index.live_rules(), fx.iset_rules.size() - 1);
  const MatchResult m = fx.index.lookup(pkts[fx.iset_rules.size() / 2]);
  if (m.hit()) {
    EXPECT_NE(static_cast<uint32_t>(m.rule_id), victim.id);
  }
  EXPECT_FALSE(fx.index.erase(victim.id)) << "double erase must fail";
  EXPECT_FALSE(fx.index.erase(0xFFFFFFFF));
}

/// The one live rule of `rules` that matches `p` (ranges are disjoint in
/// the indexed field, so there is at most one), by linear scan.
MatchResult scan(std::span<const Rule> rules, const std::vector<bool>& dead,
                 const Packet& p) {
  for (size_t i = 0; i < rules.size(); ++i)
    if (!dead[i] && rules[i].matches(p)) return MatchResult{static_cast<int32_t>(rules[i].id),
                                                            rules[i].priority};
  return MatchResult{};
}

TEST(IsetIndex, RangeEndCheckAtGapsEdgesAndTombstones) {
  // Ranges [1000 i + 7, 1000 i + 506] leave gaps on both sides of every
  // rule, so a key just past a range end has a candidate (its range starts
  // below the key) that only the range-end check rejects. Odd rules also
  // constrain the source port, so validation has fields to compare.
  constexpr size_t kRules = 300;
  RuleSet rules(kRules);
  for (size_t i = 0; i < kRules; ++i) {
    for (int f = 0; f < kNumFields; ++f) rules[i].field[static_cast<size_t>(f)] = full_range(f);
    const auto lo = static_cast<uint32_t>(1000 * i + 7);
    rules[i].field[kDstIp] = Range{lo, lo + 499};
    if (i % 2 == 1) rules[i].field[kSrcPort] = Range{1000, 2000};
  }
  canonicalize(rules);
  IsetIndex idx;
  idx.build(kDstIp, rules, rqrmi::default_config(kRules));
  std::vector<bool> dead(kRules, false);
  for (size_t i = 3; i < kRules; i += 7) {  // positions 0 and n-1 stay live
    ASSERT_TRUE(idx.erase(rules[i].id));
    dead[i] = true;
  }

  // Keys at both ends of every range and in the gaps around it, plus the
  // ends of the field domain; every one with the source port in and out of
  // the odd rules' range.
  std::vector<Packet> pkts;
  const auto add = [&](uint32_t v) {
    for (const uint32_t port : {1500u, 5u}) {
      Packet p;
      p.field[kDstIp] = v;
      p.field[kSrcPort] = port;
      pkts.push_back(p);
    }
  };
  add(0);
  add(0xFFFFFFFFu);
  for (const Rule& r : rules) {
    const Range d = r.field[kDstIp];
    for (const uint32_t v : {d.lo - 1, d.lo, d.lo + 250, d.hi, d.hi + 1, d.hi + 300}) add(v);
  }

  // Three predictions per key: the model's, and windows centered on
  // position 0 and on position n-1 that are clipped at both array ends but
  // still contain every position.
  const auto n = static_cast<uint32_t>(kRules);
  std::vector<uint32_t> vals;
  std::vector<rqrmi::Prediction> preds;
  for (const Packet& p : pkts) {
    const uint32_t v = p[kDstIp];
    for (const rqrmi::Prediction pred :
         {idx.predict(v), rqrmi::Prediction{0, n + 3}, rqrmi::Prediction{n - 1, n + 3}}) {
      vals.push_back(v);
      preds.push_back(pred);
    }
  }
  std::vector<int32_t> batch(vals.size());
  idx.search_batch(vals, preds, batch);

  size_t misses_by_range_end = 0;
  for (size_t k = 0; k < vals.size(); ++k) {
    const Packet& p = pkts[k / 3];
    const int32_t pos = idx.search(vals[k], preds[k]);
    ASSERT_EQ(batch[k], pos) << "key " << vals[k] << " prediction " << k % 3;
    int32_t want = -1;  // the stored range containing the key, by linear scan
    for (size_t i = 0; i < kRules; ++i)
      if (rules[i].field[kDstIp].contains(vals[k])) want = static_cast<int32_t>(i);
    ASSERT_EQ(pos, want) << "key " << vals[k];
    if (want < 0 && vals[k] >= rules[0].field[kDstIp].lo) ++misses_by_range_end;
    const MatchResult got = idx.validate(pos, p);
    const MatchResult expect = scan(rules, dead, p);
    EXPECT_EQ(got.rule_id, expect.rule_id) << "key " << vals[k];
    EXPECT_EQ(got.priority, expect.priority);
  }
  EXPECT_GT(misses_by_range_end, kRules);  // the gaps were exercised
}

TEST(IsetIndex, ModelBytesAreCacheScale) {
  Fixture fx{AppClass::kAcl, 4000, 10};
  // The RQ-RMI part must be small (paper: KBs), the rule store is separate.
  EXPECT_LT(fx.index.model_bytes(), 64 * 1024u);
  EXPECT_GT(fx.index.rule_storage_bytes(), fx.index.size() * sizeof(Rule));
}

TEST(IsetIndex, RejectsOverlappingRules) {
  RuleSet rules(2);
  for (auto& r : rules)
    for (int f = 0; f < kNumFields; ++f) r.field[static_cast<size_t>(f)] = full_range(f);
  rules[0].field[kDstIp] = Range{0, 100};
  rules[1].field[kDstIp] = Range{50, 150};
  canonicalize(rules);
  IsetIndex idx;
  EXPECT_THROW(idx.build(kDstIp, rules, rqrmi::default_config(2)), std::invalid_argument);
}

TEST(IsetIndex, PortFieldIndexing) {
  // iSets can be built on 16-bit fields too (paper Figure 6 uses Port).
  RuleSet rules(100);
  for (size_t i = 0; i < rules.size(); ++i) {
    for (int f = 0; f < kNumFields; ++f) rules[i].field[static_cast<size_t>(f)] = full_range(f);
    rules[i].field[kDstPort] = Range{static_cast<uint32_t>(i * 600),
                                     static_cast<uint32_t>(i * 600 + 500)};
  }
  rules.resize(109 < rules.size() ? 109 : rules.size());
  RuleSet valid;
  for (auto& r : rules)
    if (r.field[kDstPort].hi <= 0xFFFF) valid.push_back(r);
  canonicalize(valid);
  IsetIndex idx;
  idx.build(kDstPort, valid, rqrmi::default_config(valid.size()));
  for (const Rule& r : valid) {
    Packet p;
    p.field[kDstPort] = r.field[kDstPort].lo + 250;
    const MatchResult m = idx.lookup(p);
    ASSERT_TRUE(m.hit());
    EXPECT_EQ(static_cast<uint32_t>(m.rule_id), r.id);
  }
}

}  // namespace
}  // namespace nuevomatch
