// Shared machinery for tuple-space classifiers (Srinivasan et al. '99;
// Daly et al. TupleMerge '19): rules whose fields share a prefix-length
// tuple live in one hash table keyed by the masked field values.
//
// Arbitrary ranges (ports) participate as exact (len 16/8) when lo==hi and
// as wildcard (len 0) otherwise; the candidate check against the full rule
// removes false positives — the classic tuple-space treatment of ranges.
//
// Storage layout: bucket headers index a flat entry array in which each
// bucket's entries are contiguous and sorted by priority. A probe is one
// header load plus a linear walk that stops at the first entry that cannot
// beat the current best match — the same "pack values densely, terminate
// early" treatment the paper applies to its own secondary search (§4).
// Updates append to a small per-table overflow region that is folded back
// into the flat layout once it grows past a threshold, keeping inserts O(1)
// amortized (TupleMerge's selling point as the updatable remainder, §3.9).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace nuevomatch {

/// Per-field significant-bit counts defining one tuple.
struct TupleMask {
  std::array<uint8_t, kNumFields> len{};

  /// True when every field of *this is no more specific than `o` — rules of
  /// tuple `o` can be stored in a table masked by *this.
  [[nodiscard]] bool covers(const TupleMask& o) const noexcept {
    for (int f = 0; f < kNumFields; ++f)
      if (len[static_cast<size_t>(f)] > o.len[static_cast<size_t>(f)]) return false;
    return true;
  }
  [[nodiscard]] int specificity() const noexcept {
    int s = 0;
    for (uint8_t l : len) s += l;
    return s;
  }
  friend bool operator==(const TupleMask&, const TupleMask&) = default;
};

/// Field bit-width (32/32/16/16/8 for the classic 5-tuple).
[[nodiscard]] int field_bits(int f) noexcept;

/// Per-field AND masks of a tuple: mask[f] keeps the len[f] most
/// significant bits of field f (0 at len 0, every bit at len >= width).
/// Tables compute them once, so masking a probe key costs five ANDs.
using FieldMasks = std::array<uint32_t, kNumFields>;
[[nodiscard]] FieldMasks field_masks(const TupleMask& t) noexcept;

/// A masked key: the field values a table hashes and compares.
using TupleKey = std::array<uint32_t, kNumFields>;
[[nodiscard]] inline TupleKey masked_key(const std::array<uint32_t, kNumFields>& v,
                                         const FieldMasks& m) noexcept {
  TupleKey k;
  for (size_t f = 0; f < kNumFields; ++f) k[f] = v[f] & m[f];
  return k;
}

/// The natural tuple of a rule: exact prefix length per field, or 0 for
/// fields whose range is not a prefix block.
[[nodiscard]] TupleMask tuple_of(const Rule& r) noexcept;

/// True when a rule of priority `priority` could still beat `best` under the
/// (priority, id) order of types.hpp. While `best` is not a hit it carries
/// the caller's floor, which is strict; once it is a hit, an equal priority
/// can still win on a smaller id. Both the bucket walk and the table walk
/// stop at the first bound for which this is false.
[[nodiscard]] inline bool may_beat(int32_t priority, const MatchResult& best) noexcept {
  return priority < best.priority || (priority == best.priority && best.hit());
}

/// Hash of a masked key: a table's bucket is its low bits (the hash modulo
/// the power-of-two bucket count). Two independent multiplies over packed
/// (src, dst) and (sport, dport, proto), then a xorshift-multiply finalizer:
/// a multiply moves entropy only upward, and masked keys end in long runs
/// of zero bits, so without the finalizer the low bits a bucket index reads
/// would be near constant.
[[nodiscard]] inline uint64_t hash_key(const TupleKey& key) noexcept {
  const uint64_t ips = (uint64_t{key[kSrcIp]} << 32 | key[kDstIp]) * 0x9E3779B97F4A7C15ull;
  const uint64_t ports =
      (uint64_t{key[kSrcPort]} << 40 ^ uint64_t{key[kDstPort]} << 8 ^ key[kProto]) *
      0xC2B2AE3D27D4EB4Full;
  uint64_t h = ips ^ ports;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  return h ^ (h >> 32);
}

/// One hash table holding rules under a common mask.
class TupleTable {
 public:
  explicit TupleTable(TupleMask mask);

  struct Entry {
    TupleKey key{};
    uint32_t rule_pos = kDead;  // position in the owning classifier's rule array
    int32_t priority = 0;
    TupleMask exact_tuple{};  // the rule's own tuple (used when splitting)
  };
  static constexpr uint32_t kDead = std::numeric_limits<uint32_t>::max();

  void insert(const Rule& r, uint32_t rule_pos);
  /// O(bucket): tombstones the entry and leaves max_collisions() as it was
  /// (a stale chain length only makes the next split conservative; the next
  /// compaction makes it exact). best_priority() moves only when the erased
  /// entry defined it: a min scan, no rehash, on 1 erase in ~size().
  bool erase(uint32_t rule_pos, const Rule& r);

  /// Probe with a packet; appends candidate rule positions to `out`.
  void probe(const Packet& p, std::vector<uint32_t>& out) const;

  /// Allocation-free probe: fold every full-matching candidate better than
  /// `best` directly into `best` (the classifier's hot path).
  void probe_best(const Packet& p, std::span<const Rule> rules,
                  std::span<const uint8_t> alive, MatchResult& best) const noexcept;

  /// Most rules sharing one masked key (TupleMerge's split trigger — rules
  /// that genuinely collide must all be walked by a matching probe).
  [[nodiscard]] size_t max_collisions() const noexcept { return max_chain_; }
  [[nodiscard]] const TupleMask& mask() const noexcept { return mask_; }
  [[nodiscard]] size_t size() const noexcept { return n_entries_; }
  [[nodiscard]] int32_t best_priority() const noexcept { return best_priority_; }
  [[nodiscard]] size_t memory_bytes() const noexcept;

  /// Remove and return all entries whose exact tuple equals `t`.
  [[nodiscard]] std::vector<Entry> extract_tuple(const TupleMask& t);

  /// All entries (rebuild support).
  [[nodiscard]] std::vector<Entry> all_entries() const;

  /// Fold overflow into the flat layout and drop tombstones: one merge pass,
  /// or a full rehash when the entry count calls for another bucket count.
  void compact();
  /// Rebuild the flat layout from scratch under a fresh layout() (bulk
  /// builds: no snapshot can hold pages of a table built a moment ago, so
  /// it starts with no page versions).
  void rehash() { rebuild(all_entries()); }

  /// Rewrite every rule position through `fresh_pos` (old -> new), for an
  /// owner that compacts its rule array.
  void remap(std::span<const uint32_t> fresh_pos) noexcept;

  // --- snapshot support (TupleMergeSnapshot) -----------------------------
  // Buckets are cut into pages of kPageBuckets. A page's version changes
  // whenever its live rules do, and layout() — unique across all tables —
  // changes whenever rules move between buckets (rehash, split), so a
  // (layout, page, version) triple names a page's content and a snapshot
  // can reuse the pages a commit did not touch.
  static constexpr uint32_t kPageShift = 6;
  static constexpr uint32_t kPageBuckets = 1u << kPageShift;
  [[nodiscard]] size_t bucket_count() const noexcept { return heads_.size(); }
  [[nodiscard]] uint64_t layout() const noexcept { return layout_; }
  [[nodiscard]] size_t page_count() const noexcept {
    return (heads_.size() + kPageBuckets - 1) >> kPageShift;
  }
  [[nodiscard]] uint32_t page_version(size_t page) const noexcept {
    return page_version_.empty() ? 0 : page_version_[page];
  }
  /// Overflow entries as (bucket, entry), sorted by bucket then priority.
  using Extras = std::vector<std::pair<uint32_t, const Entry*>>;
  [[nodiscard]] Extras sorted_overflow() const;
  /// Append page `page`'s live rule bodies to `packed`, bucket by bucket in
  /// priority order with `extra` (sorted_overflow()) merged in. start[i]
  /// receives the index in `packed` where the page's i-th bucket begins;
  /// one more start marks the end.
  void pack_page(size_t page, const Extras& extra, std::span<const Rule> rules,
                 uint32_t* start, std::vector<Rule>& packed) const;

 private:
  [[nodiscard]] TupleKey key_of(const Rule& r) const noexcept;
  [[nodiscard]] size_t bucket_of(const TupleKey& key) const noexcept {
    return hash_key(key) & (heads_.size() - 1);
  }
  void rebuild(std::vector<Entry> live);
  void recompute_stats() noexcept;
  void recompute_best() noexcept;
  /// Visit the live entries of buckets [b0, b1) bucket by bucket in
  /// priority order, `extra` merged in, calling emit(entry) for each;
  /// start[b - b0] receives the running count (from `n`) where bucket b
  /// begins. Returns the final count.
  template <typename Emit>
  uint32_t walk_merged(const Extras& extra, uint32_t b0, uint32_t b1, uint32_t* start,
                       uint32_t n, Emit&& emit) const;
  /// False when no overflow entry hashes to bucket `b`.
  [[nodiscard]] bool may_overflow(size_t b) const noexcept {
    return !overflow_buckets_.empty() && ((overflow_buckets_[b / 64] >> (b % 64)) & 1u);
  }
  /// A rule of bucket `b` was added or removed.
  void touch(size_t b) {
    if (page_version_.empty()) page_version_.assign(page_count(), 0);
    ++page_version_[b >> kPageShift];
  }
  /// Rules moved between buckets: every page of the old layout is stale.
  void new_layout();

  TupleMask mask_;
  FieldMasks masks_;  // field_masks(mask_)
  // Flat region: per-bucket contiguous, priority-sorted entries.
  std::vector<uint32_t> heads_;   // bucket -> first entry; power-of-two size
  std::vector<uint32_t> counts_;  // bucket -> entry count
  std::vector<Entry> entries_;
  // Update region: recent inserts, folded in by compact().
  std::vector<Entry> overflow_;
  // Bit b: an overflow entry may hash to bucket b (erases leave it set).
  // Empty while overflow_ is, so built tables carry none.
  std::vector<uint64_t> overflow_buckets_;
  size_t n_entries_ = 0;
  size_t n_dead_ = 0;  // tombstones inside entries_
  size_t max_chain_ = 0;  // max same-key multiplicity
  int32_t best_priority_ = std::numeric_limits<int32_t>::max();
  uint64_t layout_ = 0;
  // Per page of kPageBuckets buckets; empty (all 0) until an update, so
  // built tables carry none.
  std::vector<uint32_t> page_version_;
};

}  // namespace nuevomatch
