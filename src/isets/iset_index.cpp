#include "isets/iset_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/mem.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace nuevomatch {

namespace {

/// Number of entries in [begin, begin+count) that are <= v, assuming the
/// array is sorted ascending. Vectorized over 8 lanes (paper Section 4:
/// field values are packed so the secondary search walks whole cache lines).
size_t count_leq(const uint32_t* begin, size_t count, uint32_t v) noexcept {
#if defined(__AVX2__)
  // Unsigned compare via sign-bit bias; lanes are counted with popcount.
  const __m256i bias = _mm256_set1_epi32(static_cast<int32_t>(0x80000000u));
  const __m256i vv =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int32_t>(v)), bias);
  size_t n = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(begin + i));
    const __m256i x = _mm256_xor_si256(raw, bias);
    const __m256i gt = _mm256_cmpgt_epi32(x, vv);
    const auto gt_mask =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
    n += 8 - static_cast<size_t>(__builtin_popcount(gt_mask));
    if (gt_mask != 0) return n;  // sorted: nothing after can be <= v
  }
  for (; i < count; ++i) {
    if (begin[i] > v) break;
    ++n;
  }
  return n;
#else
  return static_cast<size_t>(std::upper_bound(begin, begin + count, v) - begin);
#endif
}

}  // namespace

void IsetIndex::index_rules(std::span<const Rule> rules) {
  domain_ = kFieldDomain[static_cast<size_t>(field_)];
  inv_domain_ = rqrmi::normalize_reciprocal(domain_);
  live_ = rules.size();
  lo_.clear();
  lo_.reserve(rules.size());
  slots_.clear();
  slots_.reserve(rules.size());
  pos_by_id_.clear();
  pos_by_id_.reserve(rules.size());
  for (const Rule& rule : rules) {
    const Range& r = rule.field[static_cast<size_t>(field_)];
    if (!slots_.empty() && r.lo <= slots_.back().hi)
      throw std::invalid_argument{"IsetIndex: rules must be disjoint and sorted in field"};
    bool wild = true;
    for (int f = 0; f < kNumFields; ++f)
      if (f != field_ && !rule.is_wildcard(f)) wild = false;
    pos_by_id_.emplace(rule.id, static_cast<uint32_t>(slots_.size()));
    lo_.push_back(r.lo);
    slots_.push_back(Slot{rule, r.hi, 1, static_cast<uint8_t>(wild ? 1 : 0)});
  }
}

void IsetIndex::build(int field, std::span<const Rule> rules,
                      const rqrmi::RqRmiConfig& cfg) {
  field_ = field;
  index_rules(rules);
  std::vector<rqrmi::KeyInterval> intervals;
  intervals.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    intervals.push_back(rqrmi::KeyInterval{
        rqrmi::normalize_key_exact(lo_[i], domain_),
        rqrmi::normalize_key_exact(static_cast<uint64_t>(slots_[i].hi) + 1, domain_),
        static_cast<uint32_t>(i)});
  }
  model_.build(std::move(intervals), cfg);
}

void IsetIndex::restore(int field, std::span<const Rule> rules, rqrmi::RqRmi model) {
  if (model.num_intervals() != rules.size())
    throw std::invalid_argument{"IsetIndex::restore: model/rule count mismatch"};
  field_ = field;
  index_rules(rules);
  model_ = std::move(model);
}

rqrmi::Prediction IsetIndex::predict(uint32_t v, rqrmi::SimdLevel level) const noexcept {
  return model_.lookup(rqrmi::normalize_key_mul(v, inv_domain_), level);
}

rqrmi::Prediction IsetIndex::predict(uint32_t v) const noexcept {
  return model_.lookup(rqrmi::normalize_key_mul(v, inv_domain_));
}

void IsetIndex::predict_batch(std::span<const uint32_t> values,
                              std::span<rqrmi::Prediction> out,
                              rqrmi::SimdLevel level) const noexcept {
  constexpr size_t kChunk = 64;
  float keys[kChunk];
  for (size_t base = 0; base < values.size(); base += kChunk) {
    const size_t m = std::min(kChunk, values.size() - base);
    for (size_t t = 0; t < m; ++t)
      keys[t] = rqrmi::normalize_key_mul(values[base + t], inv_domain_);
    model_.lookup_batch(std::span<const float>{keys, m}, out.subspan(base, m), level);
  }
}

void IsetIndex::predict_batch(std::span<const uint32_t> values,
                              std::span<rqrmi::Prediction> out) const noexcept {
  predict_batch(values, out, rqrmi::best_simd_level());
}

int32_t IsetIndex::candidate(uint32_t v, const rqrmi::Prediction& pred) const noexcept {
  if (lo_.empty()) return -1;
  const auto n = static_cast<int64_t>(lo_.size());
  const int64_t first =
      std::max<int64_t>(0, static_cast<int64_t>(pred.index) - pred.search_error);
  const int64_t last =
      std::min<int64_t>(n - 1, static_cast<int64_t>(pred.index) + pred.search_error);
  if (first > last) return -1;
  // Last position in the window with lo <= v (ranges are disjoint & sorted,
  // so it is the only one that can contain v).
  const size_t leq = count_leq(lo_.data() + first,
                               static_cast<size_t>(last - first + 1), v);
  if (leq == 0) return -1;
  return static_cast<int32_t>(static_cast<size_t>(first) + leq - 1);
}

int32_t IsetIndex::search(uint32_t v, const rqrmi::Prediction& pred) const noexcept {
  const int32_t pos = candidate(v, pred);
  return pos >= 0 && slots_[static_cast<size_t>(pos)].hi >= v ? pos : -1;
}

void IsetIndex::search_batch(std::span<const uint32_t> values,
                             std::span<const rqrmi::Prediction> preds,
                             std::span<int32_t> out) const noexcept {
  // Pass 1: one wave of windows is prefetched ahead of the one being
  // walked, so the bounded searches overlap their DRAM accesses instead of
  // serializing; each candidate's slot is prefetched as soon as it is known.
  constexpr size_t kWave = 4;
  const size_t n = values.size();
  for (size_t i = 0; i < n && i < kWave; ++i) prefetch_window(preds[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + kWave < n) prefetch_window(preds[i + kWave]);
    out[i] = candidate(values[i], preds[i]);
    if (out[i] >= 0) __builtin_prefetch(&slots_[static_cast<size_t>(out[i])]);
  }
  // Pass 2: the range-end check, with the whole tile's slots in flight.
  for (size_t i = 0; i < n; ++i) {
    if (out[i] >= 0 && slots_[static_cast<size_t>(out[i])].hi < values[i]) out[i] = -1;
  }
}

void IsetIndex::prefetch_window(const rqrmi::Prediction& pred) const noexcept {
  if (lo_.empty()) return;
  const auto first = std::min<size_t>(
      lo_.size() - 1,
      static_cast<size_t>(std::max<int64_t>(
          0, static_cast<int64_t>(pred.index) - pred.search_error)));
  __builtin_prefetch(lo_.data() + first);
}

MatchResult IsetIndex::validate(int32_t pos, const Packet& p) const noexcept {
  return validate(pos, p, std::numeric_limits<int32_t>::max());
}

MatchResult IsetIndex::validate(int32_t pos, const Packet& p,
                                int32_t priority_floor) const noexcept {
  if (pos < 0) return MatchResult{};
  const auto i = static_cast<size_t>(pos);
  // Cheap rejections and accepts first: a candidate that cannot beat the
  // floor, or whose other fields are wildcards, needs no field compare.
  const Slot& s = slots_[i];
  if (s.rule.priority >= priority_floor || alive_load(i) == 0) return MatchResult{};
  if (s.wild_rest == 0 && !s.rule.matches(p)) return MatchResult{};
  return MatchResult{static_cast<int32_t>(s.rule.id), s.rule.priority};
}

MatchResult IsetIndex::lookup(const Packet& p, rqrmi::SimdLevel level) const noexcept {
  const uint32_t v = p[field_];
  return validate(search(v, predict(v, level)), p);
}

MatchResult IsetIndex::lookup(const Packet& p) const noexcept {
  const uint32_t v = p[field_];
  return validate(search(v, predict(v)), p);
}

MatchResult IsetIndex::lookup_with_floor(const Packet& p,
                                         int32_t priority_floor) const noexcept {
  const uint32_t v = p[field_];
  return validate(search(v, predict(v)), p, priority_floor);
}

bool IsetIndex::erase(uint32_t rule_id) noexcept {
  const auto it = pos_by_id_.find(rule_id);
  if (it == pos_by_id_.end() || alive_load(it->second) == 0) return false;
  alive_store(it->second, 0);
  --live_;
  return true;
}

size_t IsetIndex::rule_storage_bytes() const noexcept {
  return lo_.size() * sizeof(uint32_t) + slots_.size() * sizeof(Slot) +
         map_overhead_bytes(pos_by_id_);
}

}  // namespace nuevomatch
