// One indexed iSet (paper Figure 1, left path): an RQ-RMI predicting the
// position of the matching rule in a field-sorted array, a bounded secondary
// search around the prediction, and multi-field validation of the candidate.
//
// Storage has two parts. The range starts of the sorted rules sit in one
// dense array, so the secondary search walks packed cache lines (paper
// Section 4, "Inference and secondary search"). Everything a candidate needs
// after that -- the indexed field's range end, the rule body (priority, id,
// action, every field range), the tombstone and the wildcard flag -- sits in
// one 64-byte-aligned slot per rule, so confirming and validating a candidate
// costs one cache line, which search_batch prefetches across the tile.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "rqrmi/model.hpp"

namespace nuevomatch {

class IsetIndex {
 public:
  /// `rules` must be pairwise non-overlapping in `field` and sorted by the
  /// field's lo (exactly what partition_rules produces).
  void build(int field, std::span<const Rule> rules, const rqrmi::RqRmiConfig& cfg);

  /// Reinstate from an already-trained model (the serializer's load path).
  /// `rules` must be the exact rule array the model was trained on.
  void restore(int field, std::span<const Rule> rules, rqrmi::RqRmi model);

  /// Full lookup: predict, search, validate. Returns the validated match or
  /// a miss (validation may reject the candidate on another field, §3.6).
  [[nodiscard]] MatchResult lookup(const Packet& p) const noexcept;
  [[nodiscard]] MatchResult lookup(const Packet& p, rqrmi::SimdLevel level) const noexcept;
  /// Early-termination variant: candidates at or below `priority_floor` are
  /// rejected from packed metadata before the rule body is ever fetched.
  [[nodiscard]] MatchResult lookup_with_floor(const Packet& p,
                                              int32_t priority_floor) const noexcept;

  // --- staged API (used by the Figure 14 runtime-breakdown bench and the
  // --- batch pipeline) ---------------------------------------------------
  [[nodiscard]] rqrmi::Prediction predict(uint32_t field_value) const noexcept;
  [[nodiscard]] rqrmi::Prediction predict(uint32_t field_value,
                                          rqrmi::SimdLevel level) const noexcept;
  /// Cross-packet batched prediction: normalizes the values (reciprocal
  /// multiply, no divide) and runs the RQ-RMI lane-per-packet kernels.
  /// Writes values.size() predictions to `out`.
  void predict_batch(std::span<const uint32_t> values,
                     std::span<rqrmi::Prediction> out) const noexcept;
  void predict_batch(std::span<const uint32_t> values,
                     std::span<rqrmi::Prediction> out,
                     rqrmi::SimdLevel level) const noexcept;
  /// Bounded binary search around the prediction; -1 when no stored range
  /// contains the value.
  [[nodiscard]] int32_t search(uint32_t field_value,
                               const rqrmi::Prediction& pred) const noexcept;
  /// Batched bounded secondary search, equal to search() element for
  /// element. Pass 1 walks the per-packet windows of range starts, with each
  /// window prefetched one wave ahead, and prefetches every candidate's slot.
  /// Pass 2 applies the range-end check, by which time the slots are in
  /// flight, and leaves them in cache for validate().
  void search_batch(std::span<const uint32_t> values,
                    std::span<const rqrmi::Prediction> preds,
                    std::span<int32_t> out) const noexcept;
  /// Hint the cache that `pred`'s search window is about to be walked
  /// (the batch pipeline issues these one stage ahead).
  void prefetch_window(const rqrmi::Prediction& pred) const noexcept;
  /// Validate candidate position against all packet fields (tombstone-aware).
  [[nodiscard]] MatchResult validate(int32_t pos, const Packet& p) const noexcept;
  /// Same with a priority floor: the packed priority/shape metadata decides
  /// cheap rejections (floor) and cheap accepts (rules wildcard outside the
  /// indexed field) without touching the rule body (paper Section 4 packs
  /// per-rule values exactly to avoid these memory accesses).
  [[nodiscard]] MatchResult validate(int32_t pos, const Packet& p,
                                     int32_t priority_floor) const noexcept;

  /// Tombstone a rule (paper §3.9 deletion path). Returns false if absent.
  /// O(1) via the id→position map; the sorted rules and the trained model
  /// are untouched, so the §3.3 error certification stays valid. The flip
  /// itself is an atomic byte store: the online engine's wait-free readers
  /// race it lock-free, and a monotone 1→0 flag read at validation time is
  /// linearizable either way (a tombstone can only turn a hit into a miss,
  /// never shift a certified position — DESIGN.md "Update path"). Callers
  /// must still serialize erase() against other *writers* (live_ and the
  /// id map are plain).
  bool erase(uint32_t rule_id) noexcept;

  /// Whether position `i` is live (not tombstoned). Serializer support: the
  /// full rule array must travel with the model, so deletions are encoded as
  /// dead ids on the side. Atomic read — safe to call concurrently with
  /// erase() (same contract as lookups).
  [[nodiscard]] bool alive(size_t i) const noexcept { return alive_load(i) != 0; }

  [[nodiscard]] int field() const noexcept { return field_; }
  [[nodiscard]] size_t size() const noexcept { return lo_.size(); }
  [[nodiscard]] size_t live_rules() const noexcept { return live_; }
  [[nodiscard]] uint32_t max_search_error() const noexcept {
    return model_.max_search_error();
  }
  /// RQ-RMI weights — the part that must stay in cache (Figure 1 keeps the
  /// rule bodies in DRAM).
  [[nodiscard]] size_t model_bytes() const noexcept { return model_.memory_bytes(); }
  /// Range starts + rule slots + id map (the DRAM side).
  [[nodiscard]] size_t rule_storage_bytes() const noexcept;
  [[nodiscard]] const rqrmi::RqRmi& model() const noexcept { return model_; }
  /// The rule at sorted position `i` (tombstoned or not), i < size().
  [[nodiscard]] const Rule& rule(size_t i) const noexcept { return slots_[i].rule; }

 private:
  /// Everything validation reads about one rule, in one cache line.
  struct alignas(64) Slot {
    Rule rule;               // priority, id, action and every field range
    uint32_t hi = 0;         // rule.field[field_].hi, at a fixed offset
    uint8_t alive = 1;       // tombstone: after build, written only by alive_store
    uint8_t wild_rest = 0;   // 1 = wildcard in every non-indexed field
  };
  static_assert(sizeof(Slot) == 64, "one cache line per rule");

  /// Fill lo_ and slots_ from `rules`; validates sortedness/disjointness.
  void index_rules(std::span<const Rule> rules);
  /// Last position in pred's window whose range starts at or below v, or -1
  /// (search() without the range-end check).
  [[nodiscard]] int32_t candidate(uint32_t v, const rqrmi::Prediction& pred) const noexcept;

  /// Tombstone flag access. std::atomic_ref on the slot's plain byte gives
  /// the reader/writer race defined behavior without making the slot
  /// non-copyable; relaxed order suffices because nothing else is published
  /// through the flag (the rule body it gates is immutable) — cross-thread
  /// visibility ordering comes from the caller (the online engine's swap
  /// machinery, or plain thread join).
  [[nodiscard]] uint8_t alive_load(size_t i) const noexcept {
    return std::atomic_ref<uint8_t>(const_cast<uint8_t&>(slots_[i].alive))
        .load(std::memory_order_relaxed);
  }
  void alive_store(size_t i, uint8_t v) noexcept {
    std::atomic_ref<uint8_t>(slots_[i].alive).store(v, std::memory_order_relaxed);
  }

  int field_ = 0;
  uint64_t domain_ = 0;
  double inv_domain_ = 0.0;  // 1/(domain_+1): multiply, don't divide, per key
  std::vector<uint32_t> lo_;   // range starts, sorted: the secondary search
  std::vector<Slot> slots_;    // same order as lo_: the range-end check and validation
  std::unordered_map<uint32_t, uint32_t> pos_by_id_;  // O(1) erase
  size_t live_ = 0;
  rqrmi::RqRmi model_;
};

}  // namespace nuevomatch
