// TupleMerge (Daly et al., ToN'19 — paper baseline "tm") and classic Tuple
// Space Search (Srinivasan et al., SIGCOMM'99 — the Open vSwitch slow path).
//
// TupleMerge reduces the number of hash tables by storing rules in tables
// with *relaxed* (less specific) masks; a collision limit (40 in the paper)
// triggers splitting an overfull table back out into an exact-tuple table.
// Tables are kept sorted by their best priority so lookups (and the
// early-termination variant, paper Section 4) stop as soon as no remaining
// table can beat the current best match. Hash tables support O(1) rule
// insertion/deletion, which is why the paper uses tm as the updatable
// remainder backend (Section 3.9).
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "classifiers/classifier.hpp"
#include "tuplemerge/tuple_table.hpp"

namespace nuevomatch {

struct TupleMergeConfig {
  /// Longest tolerated bucket chain before a table is split (paper: 40).
  size_t collision_limit = 40;
  /// Relax IPv4 prefix lengths down to multiples of this granularity when
  /// creating tables, letting nearby tuples share one table.
  int ip_len_granularity = 8;
  /// Cap table IPv4 mask lengths: /32 host rules live in the /24 table and
  /// are disambiguated by the candidate check (Daly et al. Section 5.1 keeps
  /// the table population coarse for exactly this reason).
  int ip_len_cap = 24;
  /// Disable merging/relaxation to obtain classic Tuple Space Search.
  bool enable_merging = true;
};

/// Immutable copy of a TupleMerge's live rules — what the online engine
/// publishes per commit as its churn delta (nuevomatch/online.hpp). Each
/// table keeps its mask and bucket layout, cut into pages of
/// TupleTable::kPageBuckets buckets; a page holds the rule bodies
/// themselves, priority-sorted inside each bucket (overflow entries merged
/// in), plus per-bucket start offsets. No id map, no tombstones, no
/// entry-to-rule indirection. Pages are shared: a snapshot taken with the
/// previous one as `prev` re-packs only the pages whose buckets changed
/// since, so a commit of k ops copies O(k) pages, not the whole delta.
/// Lookups match TupleMerge::match_with_floor exactly, (priority, id) ties
/// included.
class TupleMergeSnapshot {
 public:
  TupleMergeSnapshot() = default;

  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const noexcept;
  [[nodiscard]] MatchResult match(const Packet& p) const noexcept {
    return match_with_floor(p, std::numeric_limits<int32_t>::max());
  }
  [[nodiscard]] size_t size() const noexcept { return size_; }
  /// All of it, pages shared with other snapshots included: the rule bodies
  /// are this index's entries.
  [[nodiscard]] size_t memory_bytes() const noexcept;

 private:
  friend class TupleMerge;
  struct Page {
    uint32_t version = 0;  // TupleTable::page_version() it was packed at
    int32_t best_priority = std::numeric_limits<int32_t>::max();
    std::array<uint32_t, TupleTable::kPageBuckets + 1> start{};  // bucket -> first rule
    std::vector<Rule> rules;
  };
  struct Table {
    FieldMasks masks;       // field_masks() of the source table's mask
    int32_t best_priority;  // exact: min over the table's rules
    uint32_t bucket_mask;   // bucket count - 1
    uint64_t layout;        // TupleTable::layout() of the source table
    std::vector<std::shared_ptr<const Page>> pages;
  };
  std::vector<Table> tables_;  // sorted by best_priority
  size_t size_ = 0;
};

class TupleMerge : public Classifier {
 public:
  explicit TupleMerge(TupleMergeConfig cfg = {});
  /// Exact deep copy: tables, tombstoned rule slots and the id map are all
  /// cloned. A reader-side copy wants snapshot() instead.
  TupleMerge(const TupleMerge& o);
  TupleMerge& operator=(const TupleMerge& o);
  TupleMerge(TupleMerge&&) noexcept = default;
  TupleMerge& operator=(TupleMerge&&) noexcept = default;

  void build(std::span<const Rule> rules) override;
  [[nodiscard]] MatchResult match(const Packet& p) const override;
  [[nodiscard]] MatchResult match_with_floor(const Packet& p,
                                             int32_t priority_floor) const override;

  [[nodiscard]] bool supports_updates() const override { return true; }
  /// O(1) hash insert (plus a possible table split) — the property that
  /// makes tm the paper's updatable remainder backend (§3.9).
  bool insert(const Rule& r) override;
  /// O(1) id lookup + hash-bucket removal. Falls back to a linear scan when
  /// the id is not in the map (duplicate-id inserts keep first-wins there).
  bool erase(uint32_t rule_id) override;

  [[nodiscard]] size_t memory_bytes() const override;
  [[nodiscard]] size_t size() const override { return live_rules_; }
  [[nodiscard]] std::string name() const override {
    return cfg_.enable_merging ? "tuplemerge" : "tss";
  }

  /// Immutable copy for lock-free readers (see TupleMergeSnapshot). `prev`,
  /// an earlier snapshot of this same object or null, lends the pages no
  /// update has touched since it was taken.
  [[nodiscard]] TupleMergeSnapshot snapshot(const TupleMergeSnapshot* prev = nullptr) const;

  /// The live rules, in insertion order.
  [[nodiscard]] std::vector<Rule> live_rules() const;

  [[nodiscard]] size_t num_tables() const noexcept { return tables_.size(); }
  /// Table inventory (diagnostics, benches and tests).
  [[nodiscard]] const std::vector<std::unique_ptr<TupleTable>>& tables() const noexcept {
    return tables_;
  }

 private:
  void insert_into_tables(uint32_t rule_pos);
  void sort_tables();
  /// Drop erased rule slots once they outnumber the live ones, renumbering
  /// positions in order (first-wins on duplicate ids is kept).
  void compact_rules();

  TupleMergeConfig cfg_;
  std::vector<Rule> rules_;                // rule bodies (not counted as index)
  std::vector<uint8_t> alive_;
  std::unordered_map<uint32_t, uint32_t> pos_by_id_;  // first-wins on dup ids
  size_t live_rules_ = 0;
  std::vector<std::unique_ptr<TupleTable>> tables_;  // sorted by best priority
};

/// Classic Tuple Space Search: one exact table per tuple.
class TupleSpaceSearch final : public TupleMerge {
 public:
  TupleSpaceSearch()
      : TupleMerge(TupleMergeConfig{.collision_limit = 40,
                                    .ip_len_granularity = 1,
                                    .ip_len_cap = 32,
                                    .enable_merging = false}) {}
};

}  // namespace nuevomatch
