// Train-offline / serve-online deployment flow (paper Section 5.3.4 makes
// training the expensive step, so production systems ship trained weights):
//
//   1. "Control plane": generate a rule-set, train a NuevoMatch classifier,
//      serialize it to a file.
//   2. "Data plane": load the file — no retraining — and serve lookups,
//      verifying the loaded classifier against the freshly trained one.
//
//   $ ./model_deploy [n_rules]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "classbench/generator.hpp"
#include "nuevomatch/nuevomatch.hpp"
#include "serialize/serialize.hpp"
#include "trace/trace.hpp"
#include "tuplemerge/tuplemerge.hpp"

using namespace nuevomatch;

namespace {

NuevoMatchConfig make_config() {
  NuevoMatchConfig cfg;
  cfg.remainder_factory = [] { return std::make_unique<TupleMerge>(); };
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20'000;
  const std::string path = "/tmp/nuevomatch_model.bin";

  // --- control plane: train + save ----------------------------------------
  const RuleSet rules = generate_classbench(AppClass::kAcl, 1, n, 42);
  NuevoMatch trained{make_config()};
  trained.build(rules);
  const auto bytes = serialize::save_classifier(trained);
  if (!serialize::write_file(path, bytes)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trained on %zu rules: coverage %.1f%%, %zu iSets, model %.1f KB\n",
              rules.size(), trained.coverage() * 100.0, trained.isets().size(),
              static_cast<double>(trained.memory_bytes()) / 1024.0);
  std::printf("saved %zu bytes to %s\n", bytes.size(), path.c_str());

  // --- data plane: load + serve --------------------------------------------
  const auto blob = serialize::read_file(path);
  if (!blob) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  auto served = serialize::load_classifier(*blob, make_config());
  if (!served) {
    std::fprintf(stderr, "model file is corrupt\n");
    return 1;
  }
  std::printf("loaded without retraining: coverage %.1f%%, max search error %u\n",
              served->coverage() * 100.0, served->max_search_error());

  // Smoke-verify the loaded classifier on live traffic.
  TraceConfig tc;
  tc.n_packets = 50'000;
  tc.seed = 7;
  size_t mismatches = 0;
  for (const Packet& p : generate_trace(rules, tc)) {
    if (served->match(p).rule_id != trained.match(p).rule_id) ++mismatches;
  }
  std::printf("verified on %zu packets: %zu mismatches\n",
              static_cast<size_t>(tc.n_packets), mismatches);
  return mismatches == 0 ? 0 : 1;
}
