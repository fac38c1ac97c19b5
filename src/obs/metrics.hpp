// Metrics registry: named counters, gauges and log-scale histograms for the
// whole routing flow — the mechanical version of the paper's evaluation
// numbers (oracle calls, interval-search pops, fast-grid hit rates, ...).
//
// Hot-path cost model:
//   * disabled (runtime kill switch, or BONN_OBS_DISABLED compile-time):
//     one predictable branch per call site;
//   * enabled: one relaxed fetch_add on a per-thread cache-line-padded
//     shard, so concurrent threads never contend on the same line.
// Shards are merged on read.  Handles returned by the registry are stable
// for the process lifetime; the intended call-site idiom is
//
//   static obs::Counter& c = obs::counter("shapegrid.queries");
//   c.add();
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.hpp"

namespace bonn::obs {

#if defined(BONN_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
extern std::atomic<bool> g_enabled;
/// Stable small index for the calling thread (round-robin into the shards).
int shard_index() noexcept;
inline constexpr int kShards = 16;
static_assert((kShards & (kShards - 1)) == 0, "shard mask needs a power of 2");
}  // namespace detail

/// A flag value, whole and case-insensitively: 1/y/yes/t/true/on is true,
/// 0/n/no/f/false/off is false, anything else is not a flag (nullopt).
/// The one parser for BONN_OBS and BONN_FLIGHT.
std::optional<bool> parse_flag(std::string_view text);

/// Environment flag: an unset variable, or one `parse_flag` rejects, reads
/// as `unset` (the flows also fail a run on a rejected value, see
/// env_bool in src/util/env.hpp).
bool env_flag(const char* name, bool unset);

/// Runtime kill switch (default: on, unless BONN_OBS is set to an off
/// value).
inline bool enabled() noexcept {
  if constexpr (!kCompiledIn) return false;
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    if (!enabled()) return;
    slots_[static_cast<std::size_t>(detail::shard_index())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Slot, detail::kShards> slots_{};
};

/// Last-write-wins scalar (λ, overflow counts after repair, ...).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  bool was_set() const noexcept {
    return set_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    v_.store(0.0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
  std::atomic<bool> set_{false};
};

/// Log2-bucketed histogram of non-negative integer samples (latencies in
/// µs, pops per search, ...).  Bucket b covers [2^(b-1), 2^b); bucket 0
/// covers {0}; the last bucket absorbs everything above 2^(kBuckets-2).
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  static int bucket_of(std::int64_t v) noexcept {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kBuckets ? w : kBuckets - 1;
  }
  /// Inclusive lower bound of bucket b's value range.
  static std::int64_t bucket_lo(int b) noexcept {
    return b == 0 ? 0 : std::int64_t{1} << (b - 1);
  }

  void record(std::int64_t v) noexcept {
    if (!enabled()) return;
    Shard& s = shards_[static_cast<std::size_t>(detail::shard_index())];
    s.buckets[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  std::int64_t count() const noexcept;
  std::int64_t sum() const noexcept;
  std::int64_t bucket_count(int b) const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::int64_t>, kBuckets> buckets{};
    std::atomic<std::int64_t> sum{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

enum class MetricType { kCounter, kGauge, kHistogram };

struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::int64_t count = 0;               ///< counter value / histogram count
  double value = 0.0;                   ///< gauge value / histogram mean
  bool available = true;                ///< false: gauge never set
  std::vector<std::int64_t> buckets;    ///< histogram only, trailing zeros cut
};

class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// All registered metrics, sorted by name.
  std::vector<MetricSample> snapshot() const;
  /// Zero every metric (registrations and handles stay valid).
  void reset();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide registry (one per process: metric names are the API).
Registry& registry();

// Call-site shorthands.
inline Counter& counter(std::string_view name) {
  return registry().counter(name);
}
inline Gauge& gauge(std::string_view name) { return registry().gauge(name); }
inline Histogram& histogram(std::string_view name) {
  return registry().histogram(name);
}

/// Quantile estimate from a log2-bucketed count vector (as produced by
/// MetricSample::buckets).  The rank q*(count-1) is located in its bucket,
/// then linearly interpolated across the bucket's value range
/// [bucket_lo(b), 2*bucket_lo(b)-1] — exact for single-valued buckets
/// (0 and 1), within a factor of 2 elsewhere, which is all a log-scale
/// histogram can promise.  Returns 0 for an empty histogram; q is clamped
/// to [0, 1].
double histogram_quantile(const std::vector<std::int64_t>& buckets, double q);

/// Snapshot rendered as a JSON object {"name": value, ...}; histograms
/// become {"count","mean","p50","p95","p99","buckets"} objects.  Shared by
/// the run report and the tests.
Json metrics_json();

}  // namespace bonn::obs
