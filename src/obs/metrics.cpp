#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace bonn::obs {

std::optional<bool> parse_flag(std::string_view text) {
  std::string lower(text);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const char* on : {"1", "y", "yes", "t", "true", "on"}) {
    if (lower == on) return true;
  }
  for (const char* off : {"0", "n", "no", "f", "false", "off"}) {
    if (lower == off) return false;
  }
  return std::nullopt;
}

bool env_flag(const char* name, bool unset) {
  const char* v = std::getenv(name);
  return v == nullptr ? unset : parse_flag(v).value_or(unset);
}

namespace detail {

std::atomic<bool> g_enabled{env_flag("BONN_OBS", true)};

int shard_index() noexcept {
  static std::atomic<int> next{0};
  thread_local const int idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on && kCompiledIn, std::memory_order_relaxed);
}

std::int64_t Counter::value() const noexcept {
  std::int64_t total = 0;
  for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
}

std::int64_t Histogram::count() const noexcept {
  std::int64_t total = 0;
  for (const Shard& s : shards_) {
    for (const auto& b : s.buckets) {
      total += b.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::int64_t Histogram::sum() const noexcept {
  std::int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::int64_t Histogram::bucket_count(int b) const noexcept {
  std::int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.buckets[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

struct Registry::Impl {
  mutable std::mutex mu;
  // node-based maps: handle addresses stay stable across registrations.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    it = impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<MetricSample> out;
  for (const auto& [name, c] : impl_->counters) {
    MetricSample s;
    s.name = name;
    s.type = MetricType::kCounter;
    s.count = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : impl_->gauges) {
    MetricSample s;
    s.name = name;
    s.type = MetricType::kGauge;
    s.value = g->value();
    s.available = g->was_set();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : impl_->histograms) {
    MetricSample s;
    s.name = name;
    s.type = MetricType::kHistogram;
    s.count = h->count();
    s.value = s.count > 0 ? static_cast<double>(h->sum()) /
                                static_cast<double>(s.count)
                          : 0.0;
    s.buckets.resize(Histogram::kBuckets);
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      s.buckets[static_cast<std::size_t>(b)] = h->bucket_count(b);
    }
    while (!s.buckets.empty() && s.buckets.back() == 0) s.buckets.pop_back();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

Registry& registry() {
  static Registry r;
  return r;
}

double histogram_quantile(const std::vector<std::int64_t>& buckets,
                          double q) {
  std::int64_t total = 0;
  for (const std::int64_t n : buckets) total += n;
  if (total <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Continuous rank in [0, total-1]; the sample at that (possibly
  // fractional) rank is located in its bucket, then placed proportionally
  // within the bucket's value range.
  const double rank = q * static_cast<double>(total - 1);
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::int64_t n = buckets[b];
    if (n <= 0) continue;
    if (rank < static_cast<double>(cum + n)) {
      const std::int64_t lo = Histogram::bucket_lo(static_cast<int>(b));
      const std::int64_t hi = b == 0 ? 0 : 2 * lo - 1;
      const double t = (rank - static_cast<double>(cum)) /
                       static_cast<double>(n);
      return static_cast<double>(lo) + t * static_cast<double>(hi - lo);
    }
    cum += n;
  }
  // rank == total-1 exactly and it fell through on floating-point edge:
  // the answer is in the last non-empty bucket's range top.
  for (std::size_t b = buckets.size(); b-- > 0;) {
    if (buckets[b] > 0) {
      const std::int64_t lo = Histogram::bucket_lo(static_cast<int>(b));
      return static_cast<double>(b == 0 ? 0 : 2 * lo - 1);
    }
  }
  return 0.0;
}

Json metrics_json() {
  Json out = Json::object();
  for (const MetricSample& s : registry().snapshot()) {
    switch (s.type) {
      case MetricType::kCounter:
        out.set(s.name, Json(s.count));
        break;
      case MetricType::kGauge:
        out.set(s.name, s.available ? Json(s.value) : Json());
        break;
      case MetricType::kHistogram: {
        Json h = Json::object();
        h.set("count", Json(s.count));
        h.set("mean", Json(s.value));
        h.set("p50", Json(histogram_quantile(s.buckets, 0.50)));
        h.set("p95", Json(histogram_quantile(s.buckets, 0.95)));
        h.set("p99", Json(histogram_quantile(s.buckets, 0.99)));
        // Build the array out-of-line with a reserve: GCC 12 -O2 flags
        // variant moves during vector growth as maybe-uninitialized.
        Json::Array buckets;
        buckets.reserve(s.buckets.size());
        for (const std::int64_t b : s.buckets) buckets.emplace_back(b);
        h.set("buckets", Json(std::move(buckets)));
        out.set(s.name, std::move(h));
        break;
      }
    }
  }
  return out;
}

}  // namespace bonn::obs
