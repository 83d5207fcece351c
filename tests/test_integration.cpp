// Cross-engine integration: every classifier in the repo must agree with
// every other on identical workloads, across traffic models — the strongest
// end-to-end consistency property we can state.
#include <gtest/gtest.h>

#include <memory>

#include "classbench/generator.hpp"
#include "classbench/stanford.hpp"
#include "classifiers/linear.hpp"
#include "cutsplit/cutsplit.hpp"
#include "neurocuts/neurocuts.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

std::vector<std::unique_ptr<Classifier>> all_engines() {
  std::vector<std::unique_ptr<Classifier>> out;
  out.push_back(std::make_unique<LinearSearch>());
  out.push_back(std::make_unique<TupleMerge>());
  out.push_back(std::make_unique<TupleSpaceSearch>());
  out.push_back(std::make_unique<CutSplit>());
  NeuroCutsConfig nc;
  nc.search_iterations = 4;
  out.push_back(std::make_unique<NeuroCutsLike>(nc));
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  out.push_back(std::make_unique<NuevoMatch>(cfg));
  return out;
}

struct WorkloadCase {
  AppClass app;
  int variant;
  size_t n;
  TraceConfig::Kind traffic;
  friend std::ostream& operator<<(std::ostream& os, const WorkloadCase& c) {
    os << ruleset_name(c.app, c.variant) << "_n" << c.n << "_";
    switch (c.traffic) {
      case TraceConfig::Kind::kUniform: return os << "uniform";
      case TraceConfig::Kind::kZipf: return os << "zipf";
      case TraceConfig::Kind::kCaidaLike: return os << "caida";
    }
    return os;
  }
};

class CrossEngine : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(CrossEngine, AllEnginesAgree) {
  const auto& c = GetParam();
  const RuleSet rules = generate_classbench(c.app, c.variant, c.n, 17);
  auto engines = all_engines();
  for (auto& e : engines) e->build(rules);

  TraceConfig tc;
  tc.kind = c.traffic;
  tc.n_packets = 1200;
  tc.zipf_alpha = 1.15;
  const auto trace = generate_trace(rules, tc);
  for (const Packet& p : trace) {
    const MatchResult truth = engines[0]->match(p);  // linear oracle
    for (size_t e = 1; e < engines.size(); ++e) {
      const MatchResult got = engines[e]->match(p);
      ASSERT_EQ(got.rule_id, truth.rule_id)
          << engines[e]->name() << " vs oracle on " << to_string(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrossEngine,
    ::testing::Values(
        WorkloadCase{AppClass::kAcl, 1, 1500, TraceConfig::Kind::kUniform},
        WorkloadCase{AppClass::kAcl, 2, 1500, TraceConfig::Kind::kZipf},
        WorkloadCase{AppClass::kFw, 1, 1500, TraceConfig::Kind::kUniform},
        WorkloadCase{AppClass::kFw, 3, 1000, TraceConfig::Kind::kCaidaLike},
        WorkloadCase{AppClass::kIpc, 1, 1500, TraceConfig::Kind::kZipf},
        WorkloadCase{AppClass::kIpc, 2, 800, TraceConfig::Kind::kUniform}));

TEST(CrossEngineStanford, AllEnginesAgreeOnForwarding) {
  const RuleSet rules = generate_stanford_like(2, 8000, 18);
  auto engines = all_engines();
  for (auto& e : engines) e->build(rules);
  TraceConfig tc;
  tc.n_packets = 1500;
  for (const Packet& p : generate_trace(rules, tc)) {
    const MatchResult truth = engines[0]->match(p);
    for (size_t e = 1; e < engines.size(); ++e)
      ASSERT_EQ(engines[e]->match(p).rule_id, truth.rule_id) << engines[e]->name();
  }
}

TEST(MemoryAccounting, EveryEngineReportsNonTrivialIndex) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 2000, 19);
  for (auto& e : all_engines()) {
    e->build(rules);
    EXPECT_GT(e->memory_bytes(), 0u) << e->name();
    EXPECT_EQ(e->size(), rules.size()) << e->name();
  }
}

TEST(MemoryAccounting, NuevoMatchModelsAreCacheSized) {
  // Paper §5.2.1: RQ-RMI sizes stay within L1/L2-scale regardless of rule
  // count; verify the model part is tiny relative to the rule bodies.
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 20'000, 20);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm{cfg};
  nm.build(rules);
  size_t model_bytes = 0;
  for (const auto& is : nm.isets()) model_bytes += is.model_bytes();
  EXPECT_LT(model_bytes, 128 * 1024u);
  EXPECT_LT(model_bytes, rules.size() * sizeof(Rule) / 4);
}

}  // namespace
}  // namespace nuevomatch
