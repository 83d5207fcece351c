// Two-thread batched execution (paper §4): results must be identical to the
// single-core path, for aligned and ragged batch sizes.
#include <gtest/gtest.h>

#include <memory>

#include "classbench/generator.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "nuevomatch/parallel.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

namespace nuevomatch {
namespace {

TEST(Parallel, MatchesSequentialResults) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 3000, 1);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm{cfg};
  nm.build(rules);

  TraceConfig tc;
  tc.n_packets = 4096;
  const auto trace = generate_trace(rules, tc);

  BatchParallelEngine engine{nm};
  std::vector<MatchResult> out(trace.size());
  for (size_t off = 0; off < trace.size(); off += kDefaultBatchSize) {
    const size_t len = std::min(kDefaultBatchSize, trace.size() - off);
    engine.classify({trace.data() + off, len}, {out.data() + off, len});
  }
  for (size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(out[i].rule_id, nm.match(trace[i]).rule_id) << "packet " << i;
}

TEST(Parallel, RaggedAndTinyBatches) {
  const RuleSet rules = generate_classbench(AppClass::kFw, 2, 1000, 2);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm{cfg};
  nm.build(rules);
  TraceConfig tc;
  tc.n_packets = 301;
  const auto trace = generate_trace(rules, tc);
  BatchParallelEngine engine{nm};
  for (size_t batch : {1u, 3u, 7u, 301u}) {
    std::vector<MatchResult> out(trace.size());
    for (size_t off = 0; off < trace.size(); off += batch) {
      const size_t len = std::min(batch, trace.size() - off);
      engine.classify({trace.data() + off, len}, {out.data() + off, len});
    }
    for (size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(out[i].rule_id, nm.match(trace[i]).rule_id);
  }
}

TEST(Parallel, EmptyBatchIsNoop) {
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, 200, 3);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm{cfg};
  nm.build(rules);
  BatchParallelEngine engine{nm};
  engine.classify({}, {});  // must not deadlock
  SUCCEED();
}

TEST(Parallel, MultipleEnginesOverOneClassifier) {
  const RuleSet rules = generate_classbench(AppClass::kIpc, 1, 500, 4);
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  NuevoMatch nm{cfg};
  nm.build(rules);
  TraceConfig tc;
  tc.n_packets = 256;
  const auto trace = generate_trace(rules, tc);
  BatchParallelEngine a{nm};
  BatchParallelEngine b{nm};
  std::vector<MatchResult> oa(trace.size());
  std::vector<MatchResult> ob(trace.size());
  a.classify(trace, oa);
  b.classify(trace, ob);
  for (size_t i = 0; i < trace.size(); ++i) EXPECT_EQ(oa[i].rule_id, ob[i].rule_id);
}

}  // namespace
}  // namespace nuevomatch
