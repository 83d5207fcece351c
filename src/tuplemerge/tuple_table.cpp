#include "tuplemerge/tuple_table.hpp"

#include <algorithm>
#include <atomic>

#include "common/prefix.hpp"

namespace nuevomatch {

namespace {

/// Overflow is folded into the flat layout once it exceeds this fraction of
/// the table (or this many entries on small tables). Folding costs O(table)
/// but runs once per kOverflowSlack..n/32 inserts, keeping inserts O(1)
/// amortized; probes scan the region only for buckets flagged in
/// overflow_buckets_, so its size does not tax lookups.
constexpr size_t kOverflowSlack = 16;

size_t bucket_count_for(size_t entries) noexcept {
  size_t want = 16;
  while (want < entries * 2) want <<= 1;  // target load ~0.5
  return want;
}

}  // namespace

int field_bits(int f) noexcept {
  switch (f) {
    case kSrcIp:
    case kDstIp: return 32;
    case kSrcPort:
    case kDstPort: return 16;
    default: return 8;
  }
}

FieldMasks field_masks(const TupleMask& t) noexcept {
  FieldMasks m{};
  for (int f = 0; f < kNumFields; ++f) {
    const int bits = field_bits(f);
    const int len = t.len[static_cast<size_t>(f)];
    // Shift only by 1..31: a shift by 32 would be undefined.
    m[static_cast<size_t>(f)] = len == 0 ? 0u : len >= bits ? ~0u : ~0u << (bits - len);
  }
  return m;
}

TupleMask tuple_of(const Rule& r) noexcept {
  TupleMask t;
  for (int f = 0; f < kNumFields; ++f) {
    const Range& rg = r.field[static_cast<size_t>(f)];
    const int bits = field_bits(f);
    if (rg.is_exact()) {
      t.len[static_cast<size_t>(f)] = static_cast<uint8_t>(bits);
    } else if (bits == 32) {
      const auto len = range_to_prefix_len(rg);
      t.len[static_cast<size_t>(f)] = static_cast<uint8_t>(len.value_or(0));
    } else {
      // Non-exact port/proto ranges are verified at candidate check.
      t.len[static_cast<size_t>(f)] = 0;
    }
  }
  return t;
}

TupleTable::TupleTable(TupleMask mask)
    : mask_(mask), masks_(field_masks(mask)), heads_(16, 0), counts_(16, 0) {
  new_layout();
}

void TupleTable::new_layout() {
  static std::atomic<uint64_t> next{1};
  layout_ = next.fetch_add(1, std::memory_order_relaxed);
  page_version_ = {};
}

TupleKey TupleTable::key_of(const Rule& r) const noexcept {
  TupleKey key;
  for (size_t f = 0; f < kNumFields; ++f) key[f] = r.field[f].lo & masks_[f];
  return key;
}

void TupleTable::rebuild(std::vector<Entry> live) {
  n_entries_ = live.size();
  n_dead_ = 0;
  overflow_.clear();
  overflow_buckets_ = {};
  const size_t n_buckets = bucket_count_for(live.size());
  heads_.assign(n_buckets, 0);
  counts_.assign(n_buckets, 0);

  // Group by bucket, order by priority inside each bucket so probes can
  // terminate at the first entry that cannot beat the current best.
  std::vector<std::pair<uint32_t, uint32_t>> order;  // (bucket, index in live)
  order.reserve(live.size());
  for (uint32_t i = 0; i < live.size(); ++i)
    order.emplace_back(static_cast<uint32_t>(bucket_of(live[i].key)), i);
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return live[a.second].priority < live[b.second].priority;
  });
  entries_.clear();
  entries_.reserve(live.size());
  for (const auto& [bucket, idx] : order) {
    if (counts_[bucket] == 0) heads_[bucket] = static_cast<uint32_t>(entries_.size());
    ++counts_[bucket];
    entries_.push_back(live[idx]);
  }
  recompute_stats();
  new_layout();
}

TupleTable::Extras TupleTable::sorted_overflow() const {
  Extras extra;
  extra.reserve(overflow_.size());
  for (const Entry& e : overflow_) extra.emplace_back(static_cast<uint32_t>(bucket_of(e.key)), &e);
  std::sort(extra.begin(), extra.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second->priority < b.second->priority;
  });
  return extra;
}

template <typename Emit>
uint32_t TupleTable::walk_merged(const Extras& extra, uint32_t b0, uint32_t b1,
                                 uint32_t* start, uint32_t n, Emit&& emit) const {
  // The flat region is grouped by bucket in priority order; overflow
  // entries merge into their buckets.
  auto x = std::lower_bound(extra.begin(), extra.end(), b0,
                            [](const auto& e, uint32_t b) { return e.first < b; });
  for (uint32_t b = b0; b < b1; ++b) {
    start[b - b0] = n;
    const Entry* e = entries_.data() + heads_[b];
    const Entry* const e_end = e + counts_[b];
    if (e == e_end && (x == extra.end() || x->first != b)) continue;  // most buckets
    for (;; ++n) {
      while (e != e_end && e->rule_pos == kDead) ++e;
      if (x != extra.end() && x->first == b && (e == e_end || x->second->priority < e->priority)) {
        emit(*(x++)->second);
      } else if (e != e_end) {
        emit(*e++);
      } else {
        break;
      }
    }
  }
  return n;
}

void TupleTable::compact() {
  if (bucket_count_for(n_entries_) != heads_.size()) {
    rebuild(all_entries());  // resize: every key is rehashed
    return;
  }
  // Same bucket count: one merge pass lays the table out again, no sort.
  std::vector<Entry> merged;
  merged.reserve(n_entries_);
  std::vector<uint32_t> heads(heads_.size());
  walk_merged(sorted_overflow(), 0, static_cast<uint32_t>(heads.size()), heads.data(), 0,
              [&](const Entry& e) { merged.push_back(e); });
  for (size_t b = 0; b + 1 < heads.size(); ++b) counts_[b] = heads[b + 1] - heads[b];
  counts_.back() = static_cast<uint32_t>(merged.size()) - heads.back();
  heads_ = std::move(heads);
  entries_ = std::move(merged);
  overflow_.clear();
  overflow_buckets_ = {};
  n_dead_ = 0;
  recompute_stats();
}

void TupleTable::insert(const Rule& r, uint32_t rule_pos) {
  Entry e;
  e.key = key_of(r);
  e.rule_pos = rule_pos;
  e.priority = r.priority;
  e.exact_tuple = tuple_of(r);
  overflow_.push_back(e);
  ++n_entries_;
  best_priority_ = std::min(best_priority_, e.priority);
  const size_t b = bucket_of(e.key);
  touch(b);
  if (overflow_buckets_.empty()) overflow_buckets_.assign((heads_.size() + 63) / 64, 0);
  overflow_buckets_[b / 64] |= uint64_t{1} << (b % 64);
  // Same-key multiplicity for the split trigger: count key twins.
  size_t twins = 1;
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c)
    if (entries_[i].rule_pos != kDead && entries_[i].key == e.key) ++twins;
  for (const Entry& o : overflow_)
    if (o.rule_pos != rule_pos && o.key == e.key) ++twins;
  max_chain_ = std::max(max_chain_, twins);

  if (overflow_.size() > std::max(kOverflowSlack, n_entries_ / 32)) compact();
}

bool TupleTable::erase(uint32_t rule_pos, const Rule& r) {
  const auto key = key_of(r);
  const size_t b = bucket_of(key);
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c) {
    Entry& e = entries_[i];
    if (e.rule_pos == rule_pos && e.key == key) {
      e.rule_pos = kDead;
      --n_entries_;
      ++n_dead_;
      touch(b);
      if (n_dead_ > n_entries_ / 2) {
        compact();  // recomputes every stat
      } else if (r.priority == best_priority_) {
        recompute_best();
      }
      return true;
    }
  }
  for (Entry& e : overflow_) {
    if (e.rule_pos == rule_pos && e.key == key) {
      e = overflow_.back();  // overflow is unordered
      overflow_.pop_back();
      --n_entries_;
      touch(b);
      if (r.priority == best_priority_) recompute_best();
      return true;
    }
  }
  return false;
}

void TupleTable::recompute_best() noexcept {
  best_priority_ = std::numeric_limits<int32_t>::max();
  for (const Entry& e : entries_) {
    if (e.rule_pos != kDead) best_priority_ = std::min(best_priority_, e.priority);
  }
  for (const Entry& e : overflow_) best_priority_ = std::min(best_priority_, e.priority);
}

void TupleTable::probe(const Packet& p, std::vector<uint32_t>& out) const {
  const TupleKey key = masked_key(p.field, masks_);
  const size_t b = bucket_of(key);
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c) {
    const Entry& e = entries_[i];
    if (e.rule_pos != kDead && e.key == key) out.push_back(e.rule_pos);
  }
  if (!may_overflow(b)) return;
  for (const Entry& e : overflow_) {
    if (e.key == key) out.push_back(e.rule_pos);
  }
}

void TupleTable::probe_best(const Packet& p, std::span<const Rule> rules,
                            std::span<const uint8_t> alive,
                            MatchResult& best) const noexcept {
  const TupleKey key = masked_key(p.field, masks_);
  // Callers check may_beat() first, so against a floor (no hit yet) the
  // candidate is strictly better; against a hit, beats() settles a tie by
  // rule id (equal priorities are not ordered by id inside a bucket).
  const auto consider = [&](const Entry& e) {
    const Rule& r = rules[e.rule_pos];
    if (!alive[e.rule_pos] || !r.matches(p)) return;
    const MatchResult m{static_cast<int32_t>(r.id), r.priority};
    if (m.beats(best)) best = m;
  };
  const size_t b = bucket_of(key);
  for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c) {
    const Entry& e = entries_[i];
    if (!may_beat(e.priority, best)) break;  // bucket sorted by priority
    if (e.rule_pos != kDead && e.key == key) consider(e);
  }
  if (!may_overflow(b)) return;
  for (const Entry& e : overflow_) {
    if (may_beat(e.priority, best) && e.key == key) consider(e);
  }
}

void TupleTable::recompute_stats() noexcept {
  // Entries with equal keys share a bucket, so multiplicities are counted
  // bucket by bucket (buckets are short: the load target is ~0.5).
  max_chain_ = 0;
  best_priority_ = std::numeric_limits<int32_t>::max();
  for (size_t b = 0; b < heads_.size(); ++b) {
    const Entry* bucket = entries_.data() + heads_[b];
    for (uint32_t i = 0; i < counts_[b]; ++i) {
      if (bucket[i].rule_pos == kDead) continue;
      best_priority_ = std::min(best_priority_, bucket[i].priority);
      size_t twins = 1;
      for (uint32_t j = 0; j < i; ++j)
        twins += bucket[j].rule_pos != kDead && bucket[j].key == bucket[i].key;
      max_chain_ = std::max(max_chain_, twins);
    }
  }
  for (const Entry& o : overflow_) {
    best_priority_ = std::min(best_priority_, o.priority);
    size_t twins = 0;
    const size_t b = bucket_of(o.key);
    for (uint32_t i = heads_[b], c = 0; c < counts_[b]; ++i, ++c)
      twins += entries_[i].rule_pos != kDead && entries_[i].key == o.key;
    for (const Entry& e : overflow_) twins += e.key == o.key;
    max_chain_ = std::max(max_chain_, twins);
  }
}

std::vector<TupleTable::Entry> TupleTable::extract_tuple(const TupleMask& t) {
  std::vector<Entry> moved;
  for (Entry& e : entries_) {
    if (e.rule_pos != kDead && e.exact_tuple == t) {
      moved.push_back(e);
      e.rule_pos = kDead;
      --n_entries_;
      ++n_dead_;
    }
  }
  for (size_t i = overflow_.size(); i-- > 0;) {
    if (overflow_[i].exact_tuple == t) {
      moved.push_back(overflow_[i]);
      overflow_.erase(overflow_.begin() + static_cast<long>(i));
      --n_entries_;
    }
  }
  recompute_stats();
  if (!moved.empty()) new_layout();
  return moved;
}

std::vector<TupleTable::Entry> TupleTable::all_entries() const {
  std::vector<Entry> out;
  out.reserve(n_entries_);
  for (const Entry& e : entries_) {
    if (e.rule_pos != kDead) out.push_back(e);
  }
  for (const Entry& e : overflow_) out.push_back(e);
  return out;
}

void TupleTable::remap(std::span<const uint32_t> fresh_pos) noexcept {
  for (Entry& e : entries_) {
    if (e.rule_pos != kDead) e.rule_pos = fresh_pos[e.rule_pos];
  }
  for (Entry& e : overflow_) e.rule_pos = fresh_pos[e.rule_pos];
}

void TupleTable::pack_page(size_t page, const Extras& extra, std::span<const Rule> rules,
                           uint32_t* start, std::vector<Rule>& packed) const {
  const auto b0 = static_cast<uint32_t>(page << kPageShift);
  const auto b1 = static_cast<uint32_t>(std::min(heads_.size(), size_t{b0} + kPageBuckets));
  start[b1 - b0] = walk_merged(extra, b0, b1, start, static_cast<uint32_t>(packed.size()),
                               [&](const Entry& e) { packed.push_back(rules[e.rule_pos]); });
}

size_t TupleTable::memory_bytes() const noexcept {
  return (entries_.size() + overflow_.size()) * sizeof(Entry) +
         heads_.size() * (sizeof(uint32_t) + sizeof(uint32_t)) +
         overflow_buckets_.size() * sizeof(uint64_t) + page_version_.size() * sizeof(uint32_t);
}

}  // namespace nuevomatch
