#include "tuplemerge/tuplemerge.hpp"

#include <algorithm>
#include <optional>

#include "common/mem.hpp"

namespace nuevomatch {

TupleMerge::TupleMerge(TupleMergeConfig cfg) : cfg_(cfg) {}

TupleMerge::TupleMerge(const TupleMerge& o)
    : cfg_(o.cfg_),
      rules_(o.rules_),
      alive_(o.alive_),
      pos_by_id_(o.pos_by_id_),
      live_rules_(o.live_rules_) {
  tables_.reserve(o.tables_.size());
  for (const auto& t : o.tables_) tables_.push_back(std::make_unique<TupleTable>(*t));
}

TupleMerge& TupleMerge::operator=(const TupleMerge& o) {
  if (this != &o) *this = TupleMerge{o};  // copy-construct, then move-assign
  return *this;
}

namespace {

/// compact_rules() waits for at least this many erased slots, so small
/// engines do not renumber on every other erase.
constexpr size_t kMinCompactSlots = 64;

/// Table mask for a new table holding rules of tuple `t`: TupleMerge relaxes
/// IPv4 lengths so similar tuples can share the table; TSS keeps `t` as-is.
/// Rounding down to a coarse granularity and capping the length keeps the
/// total table count small — the quantity that dominates lookup cost —
/// while the collision limit bounds how much relaxation can hurt.
TupleMask relaxed_mask(const TupleMask& t, const TupleMergeConfig& cfg) {
  if (!cfg.enable_merging) return t;
  TupleMask m = t;
  for (int f : {kSrcIp, kDstIp}) {
    const int g = std::max(1, cfg.ip_len_granularity);
    m.len[static_cast<size_t>(f)] = static_cast<uint8_t>(
        std::min(cfg.ip_len_cap, m.len[static_cast<size_t>(f)] / g * g));
  }
  return m;
}

}  // namespace

void TupleMerge::build(std::span<const Rule> rules) {
  rules_.assign(rules.begin(), rules.end());
  alive_.assign(rules_.size(), 1);
  live_rules_ = rules_.size();
  pos_by_id_.clear();
  pos_by_id_.reserve(rules_.size());
  for (uint32_t i = 0; i < rules_.size(); ++i) pos_by_id_.emplace(rules_[i].id, i);
  tables_.clear();
  // Priority order makes early termination effective from the start.
  std::vector<uint32_t> order(rules_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rules_[a].priority < rules_[b].priority;
  });
  for (uint32_t pos : order) insert_into_tables(pos);
  // Fold every table's update region into its flat layout: bulk build must
  // leave nothing on the linear-scan path.
  for (auto& tbl : tables_) tbl->rehash();
  sort_tables();
}

void TupleMerge::insert_into_tables(uint32_t rule_pos) {
  const Rule& r = rules_[rule_pos];
  const TupleMask t = tuple_of(r);

  // Most specific existing table that can hold this rule.
  TupleTable* best = nullptr;
  for (auto& tbl : tables_) {
    if (!tbl->mask().covers(t)) continue;
    if (!cfg_.enable_merging && !(tbl->mask() == t)) continue;
    if (best == nullptr || tbl->mask().specificity() > best->mask().specificity())
      best = tbl.get();
  }
  if (best == nullptr) {
    tables_.push_back(std::make_unique<TupleTable>(relaxed_mask(t, cfg_)));
    best = tables_.back().get();
  }
  best->insert(r, rule_pos);

  // TupleMerge split: an overfull relaxed table spills the colliding tuple
  // back into its own exact table.
  if (cfg_.enable_merging && best->max_collisions() > cfg_.collision_limit &&
      !(best->mask() == t)) {
    auto moved = best->extract_tuple(t);
    if (!moved.empty()) {
      tables_.push_back(std::make_unique<TupleTable>(t));
      TupleTable* fresh = tables_.back().get();
      for (const auto& e : moved) fresh->insert(rules_[e.rule_pos], e.rule_pos);
    }
  }
}

void TupleMerge::sort_tables() {
  std::sort(tables_.begin(), tables_.end(), [](const auto& a, const auto& b) {
    return a->best_priority() < b->best_priority();
  });
}

MatchResult TupleMerge::match(const Packet& p) const {
  return match_with_floor(p, std::numeric_limits<int32_t>::max());
}

MatchResult TupleMerge::match_with_floor(const Packet& p, int32_t priority_floor) const {
  MatchResult best;
  best.priority = priority_floor;  // acts as the pruning bound; not a hit yet
  for (const auto& tbl : tables_) {
    if (!may_beat(tbl->best_priority(), best)) break;  // sorted: nothing better left
    tbl->probe_best(p, rules_, alive_, best);
  }
  return best.rule_id != MatchResult::kNoMatch ? best : MatchResult{};
}

bool TupleMerge::insert(const Rule& r) {
  rules_.push_back(r);
  alive_.push_back(1);
  ++live_rules_;
  const auto pos = static_cast<uint32_t>(rules_.size() - 1);
  pos_by_id_.emplace(r.id, pos);  // emplace keeps the oldest on dup ids
  insert_into_tables(pos);
  sort_tables();
  return true;
}

bool TupleMerge::erase(uint32_t rule_id) {
  uint32_t pos = 0;
  const auto it = pos_by_id_.find(rule_id);
  if (it != pos_by_id_.end()) {
    pos = it->second;
  } else {
    // Not mapped: either absent, already erased, or a duplicate id whose
    // mapped occurrence was erased earlier. Match the legacy semantics
    // (first *alive* occurrence) with a scan.
    while (pos < rules_.size() && !(rules_[pos].id == rule_id && alive_[pos])) ++pos;
    if (pos == rules_.size()) return false;
  }
  if (!alive_[pos]) return false;
  // Only a table whose mask covers the rule's tuple can hold it.
  const TupleMask t = tuple_of(rules_[pos]);
  for (auto tbl = tables_.begin(); tbl != tables_.end(); ++tbl) {
    if (!(*tbl)->mask().covers(t)) continue;
    const int32_t best_before = (*tbl)->best_priority();
    if (!(*tbl)->erase(pos, rules_[pos])) continue;
    alive_[pos] = 0;
    --live_rules_;
    if (it != pos_by_id_.end()) pos_by_id_.erase(it);
    if ((*tbl)->size() == 0) {
      tables_.erase(tbl);  // keeps the order of the others
    } else if ((*tbl)->best_priority() != best_before) {
      // Erasing a table's best rule RAISES its bound, possibly past later
      // tables' — match_with_floor's break would then skip them.
      sort_tables();
    }
    if (rules_.size() - live_rules_ > std::max(live_rules_, kMinCompactSlots))
      compact_rules();
    return true;
  }
  return false;
}

void TupleMerge::compact_rules() {
  std::vector<uint32_t> fresh_pos(rules_.size(), TupleTable::kDead);
  uint32_t n = 0;
  for (uint32_t i = 0; i < rules_.size(); ++i) {
    if (!alive_[i]) continue;
    fresh_pos[i] = n;
    rules_[n++] = rules_[i];
  }
  rules_.resize(n);
  alive_.assign(n, 1);
  for (auto& [id, pos] : pos_by_id_) pos = fresh_pos[pos];  // maps live slots only
  for (auto& tbl : tables_) tbl->remap(fresh_pos);
}

TupleMergeSnapshot TupleMerge::snapshot(const TupleMergeSnapshot* prev) const {
  using Snap = TupleMergeSnapshot;
  Snap out;
  out.tables_.reserve(tables_.size());
  for (const auto& tbl : tables_) {
    if (tbl->size() == 0) continue;
    // The same layout means the same table with the same bucket count; a
    // page whose version did not move holds the same rules. (Linear: the
    // delta has a handful of tables.)
    const Snap::Table* old = nullptr;
    if (prev != nullptr) {
      for (const Snap::Table& t : prev->tables_) {
        if (t.layout == tbl->layout()) old = &t;
      }
    }
    Snap::Table t{field_masks(tbl->mask()), std::numeric_limits<int32_t>::max(),
                  static_cast<uint32_t>(tbl->bucket_count() - 1), tbl->layout(), {}};
    t.pages.reserve(tbl->page_count());
    std::optional<TupleTable::Extras> extra;  // sorted once, if a page is re-packed
    for (size_t pg = 0; pg < tbl->page_count(); ++pg) {
      if (old != nullptr && old->pages[pg]->version == tbl->page_version(pg)) {
        t.pages.push_back(old->pages[pg]);
      } else {
        if (!extra) extra = tbl->sorted_overflow();
        auto page = std::make_shared<Snap::Page>();
        page->version = tbl->page_version(pg);
        tbl->pack_page(pg, *extra, rules_, page->start.data(), page->rules);
        for (const Rule& r : page->rules)
          page->best_priority = std::min(page->best_priority, r.priority);
        t.pages.push_back(std::move(page));
      }
      t.best_priority = std::min(t.best_priority, t.pages.back()->best_priority);
      out.size_ += t.pages.back()->rules.size();
    }
    out.tables_.push_back(std::move(t));
  }
  std::sort(out.tables_.begin(), out.tables_.end(),
            [](const auto& a, const auto& b) { return a.best_priority < b.best_priority; });
  return out;
}

MatchResult TupleMergeSnapshot::match_with_floor(const Packet& p,
                                                 int32_t priority_floor) const noexcept {
  MatchResult best;
  best.priority = priority_floor;  // the pruning bound; not a hit yet
  for (const Table& t : tables_) {
    if (!may_beat(t.best_priority, best)) break;  // sorted: nothing better left
    // A rule that matches p has p's masked key, so it sits in this bucket:
    // the rule check alone filters the bucket's other keys.
    const size_t b = hash_key(masked_key(p.field, t.masks)) & t.bucket_mask;
    const Page& page = *t.pages[b >> TupleTable::kPageShift];
    const size_t i = b & (TupleTable::kPageBuckets - 1);
    for (const Rule *r = page.rules.data() + page.start[i],
                    *end = page.rules.data() + page.start[i + 1];
         r != end; ++r) {
      if (!may_beat(r->priority, best)) break;  // bucket sorted by priority
      if (!r->matches(p)) continue;
      const MatchResult m{static_cast<int32_t>(r->id), r->priority};
      if (m.beats(best)) best = m;
    }
  }
  return best.hit() ? best : MatchResult{};
}

size_t TupleMergeSnapshot::memory_bytes() const noexcept {
  size_t bytes = tables_.size() * sizeof(Table);
  for (const Table& t : tables_) {
    bytes += t.pages.size() * (sizeof(std::shared_ptr<const Page>) + sizeof(Page));
    for (const auto& page : t.pages) bytes += page->rules.size() * sizeof(Rule);
  }
  return bytes;
}

std::vector<Rule> TupleMerge::live_rules() const {
  std::vector<Rule> out;
  out.reserve(live_rules_);
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (alive_[i]) out.push_back(rules_[i]);
  }
  return out;
}

size_t TupleMerge::memory_bytes() const {
  size_t bytes = tables_.size() * sizeof(TupleTable);
  for (const auto& t : tables_) bytes += t->memory_bytes();
  bytes += map_overhead_bytes(pos_by_id_);
  return bytes;
}

}  // namespace nuevomatch
