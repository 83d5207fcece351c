// Benchmark-side pipeline elements. None of them change what the product
// path computes; they feed it, time it and check it from outside:
//
//   LoopSource  a TraceSource that cycles: pumps 32-packet bursts over the
//               seeded trace forever (closed loop), honoring the replica
//               filter exactly like TraceSource::pump, until a deadline;
//   SpanTap     a pass-through span at an element boundary: time spent
//               downstream of it (pushes are synchronous, so spans nest);
//               the tap in front of the Classifier also counts and records
//               the miss lanes it forwards, for the staged replay;
//   CheckSink   the terminal: compares every decision with the oracle's
//               expected rule id and records pump-to-sink burst latency.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "pipeline/element.hpp"
#include "pipeline/flow_cache.hpp"

namespace perfbench {

using nuevomatch::Packet;
using nuevomatch::pipeline::Burst;
using nuevomatch::pipeline::kBurstSize;

using nuevomatch::telemetry::now_ns;

/// The measurement window is cut into this many equal slices; throughput
/// and latency percentiles are reported as medians over the slices, so a
/// transient stall of the host moves one slice, not the result.
inline constexpr size_t kSlices = 20;

/// Half-open measurement window [start, end) in steady-clock ns. Elements
/// read it through a pointer: the graph is built (and its construction
/// timed) before the window is placed, and the window is written only
/// before the graph starts running.
struct Window {
  uint64_t start = 0;
  uint64_t end = 0;
  [[nodiscard]] bool contains(uint64_t t) const noexcept { return t >= start && t < end; }
  [[nodiscard]] double seconds() const noexcept { return static_cast<double>(end - start) * 1e-9; }
};

class LoopSource final : public nuevomatch::pipeline::SourceElement {
 public:
  LoopSource(std::shared_ptr<const std::vector<Packet>> trace, const Window* window)
      : trace_(std::move(trace)), window_(window) {}
  [[nodiscard]] std::string_view kind() const override { return "LoopSource"; }

  /// Ends the stream at the first burst that would start after the window.
  [[nodiscard]] bool pump(Burst& b) override {
    const uint64_t t = now_ns();
    if (t >= window_->end) return false;
    const std::vector<Packet>& tr = *trace_;
    while (b.size < kBurstSize) {
      const uint64_t pos = next_;
      next_ = next_ + 1 == tr.size() ? 0 : next_ + 1;
      ++consumed_;
      if (!accepts(tr[pos], consumed_)) continue;
      const uint32_t i = b.size++;
      b.pkt[i] = tr[pos];
      b.ts_ns[i] = t;     // pump time: CheckSink measures pump-to-sink
      b.index[i] = pos;   // trace position: CheckSink's oracle key
      b.result[i] = nuevomatch::MatchResult{};
      b.action[i] = -1;
    }
    publish_pos(consumed_);
    return true;
  }

 private:
  std::shared_ptr<const std::vector<Packet>> trace_;
  const Window* window_;
  uint64_t next_ = 0;
  uint64_t consumed_ = 0;
};

/// Pass-through span: accumulates the time spent downstream of it for
/// bursts entering inside `window`. `record_misses` makes it the
/// Classifier-input tap: it also counts unresolved lanes and classifier
/// calls, and keeps the first `max_recorded` in-window miss lanes in their
/// burst shapes for the staged replay. `cache`, when set, is snapshotted at
/// the first in-window burst, so cache counters cover the window only.
class SpanTap final : public nuevomatch::pipeline::Element {
 public:
  SpanTap(const Window* window, bool record_misses = false, size_t max_recorded = 0,
          const nuevomatch::pipeline::FlowCache* cache = nullptr)
      : window_(window), record_(record_misses), max_recorded_(max_recorded),
        cache_(cache) {
    rec_pkts_.reserve(max_recorded_);
    rec_batches_.reserve(max_recorded_);
  }
  [[nodiscard]] std::string_view kind() const override { return "SpanTap"; }

  void process(Burst& b) override {
    const uint64_t t0 = now_ns();
    if (!window_->contains(t0)) {
      forward(b);
      return;
    }
    if (cache_ != nullptr && !snapped_) {
      cache_at_start_ = cache_->stats();
      snapped_ = true;
    }
    if (record_) note_misses(b);
    forward(b);
    ns_ += now_ns() - t0;
  }

  [[nodiscard]] uint64_t ns() const noexcept { return ns_; }
  [[nodiscard]] uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] const nuevomatch::pipeline::FlowCache::Stats& cache_at_start() const noexcept {
    return cache_at_start_;
  }
  /// Recorded miss packets, concatenated, and the size of each batch.
  [[nodiscard]] const std::vector<Packet>& recorded() const noexcept { return rec_pkts_; }
  [[nodiscard]] const std::vector<uint32_t>& batches() const noexcept { return rec_batches_; }

 private:
  void note_misses(const Burst& b) {
    const uint32_t all = b.size >= kBurstSize ? ~uint32_t{0} : (1u << b.size) - 1;
    const uint32_t open = all & ~b.resolved;
    if (open == 0) return;
    const auto n = static_cast<uint32_t>(std::popcount(open));
    misses_ += n;
    ++calls_;
    if (rec_pkts_.size() + n > max_recorded_) return;
    for (uint32_t i = 0; i < b.size; ++i) {
      if ((open >> i) & 1u) rec_pkts_.push_back(b.pkt[i]);
    }
    rec_batches_.push_back(n);
  }

  const Window* window_;
  bool record_;
  size_t max_recorded_;
  const nuevomatch::pipeline::FlowCache* cache_;
  bool snapped_ = false;
  nuevomatch::pipeline::FlowCache::Stats cache_at_start_{};
  uint64_t ns_ = 0;
  uint64_t misses_ = 0;
  uint64_t calls_ = 0;
  std::vector<Packet> rec_pkts_;
  std::vector<uint32_t> rec_batches_;
};

/// What the checking sink compares against. Immutable while graphs run.
struct Oracle {
  /// Expected rule id per trace position.
  std::vector<int32_t> expected;
  /// Rule ids >= n_base are inserted copies; copy (id - n_base) resolves
  /// to base rule source[id - n_base].
  uint32_t n_base = 0;
  std::vector<int32_t> copy_source;

  [[nodiscard]] int32_t resolve(int32_t rule_id) const noexcept {
    if (rule_id < 0 || static_cast<uint32_t>(rule_id) < n_base) return rule_id;
    const size_t k = static_cast<uint32_t>(rule_id) - n_base;
    return k < copy_source.size() ? copy_source[k] : -2;
  }
};

class CheckSink final : public nuevomatch::pipeline::Element {
 public:
  struct Mismatch {
    uint64_t position = 0;
    int32_t got = 0;
    int32_t expected = 0;
  };

  CheckSink(std::shared_ptr<const Oracle> oracle, const Window* window)
      : oracle_(std::move(oracle)), window_(window) {
    for (auto& v : lat_ns_) v.reserve((size_t{1} << 22) / kSlices);
  }
  [[nodiscard]] std::string_view kind() const override { return "CheckSink"; }

  void process(Burst& b) override {
    const Oracle& o = *oracle_;
    for (uint32_t i = 0; i < b.size; ++i) {
      const int32_t want = o.expected[b.index[i]];
      const int32_t got = o.resolve(b.result[i].rule_id);
      if (got != want) {
        if (mismatches_ == 0) first_ = Mismatch{b.index[i], b.result[i].rule_id, want};
        ++mismatches_;
      }
    }
    checked_ += b.size;
    const uint64_t t = now_ns();
    if (window_->contains(t)) {
      const size_t slice =
          static_cast<size_t>((t - window_->start) * kSlices / (window_->end - window_->start));
      slice_packets_[slice] += b.size;
      window_packets_ += b.size;
      window_bursts_ += 1;
      const uint64_t lat = t - b.ts_ns[0];
      busy_ns_ += lat;
      lat_ns_[slice].push_back(static_cast<uint32_t>(std::min<uint64_t>(lat, UINT32_MAX)));
    }
  }

  [[nodiscard]] uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] uint64_t mismatches() const noexcept { return mismatches_; }
  [[nodiscard]] const Mismatch& first_mismatch() const noexcept { return first_; }
  [[nodiscard]] uint64_t window_packets() const noexcept { return window_packets_; }
  [[nodiscard]] const std::array<uint64_t, kSlices>& slice_packets() const noexcept {
    return slice_packets_;
  }
  [[nodiscard]] uint64_t window_bursts() const noexcept { return window_bursts_; }
  /// Sum of in-window pump-to-sink burst times (the graph's busy time).
  [[nodiscard]] uint64_t busy_ns() const noexcept { return busy_ns_; }
  /// Pump-to-sink burst latencies, per window slice.
  [[nodiscard]] const std::array<std::vector<uint32_t>, kSlices>& latencies_ns() const noexcept {
    return lat_ns_;
  }

 private:
  std::shared_ptr<const Oracle> oracle_;
  const Window* window_;
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
  Mismatch first_;
  uint64_t window_packets_ = 0;
  std::array<uint64_t, kSlices> slice_packets_{};
  uint64_t window_bursts_ = 0;
  uint64_t busy_ns_ = 0;
  std::array<std::vector<uint32_t>, kSlices> lat_ns_;
};

}  // namespace perfbench
