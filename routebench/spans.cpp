#include "routebench/spans.hpp"

#include <chrono>

#include "src/obs/metrics.hpp"

namespace routebench {

namespace obs = bonn::obs;

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int64_t SpanRecorder::Span::delta(const std::string& counter) const {
  for (const auto& [name, d] : deltas) {
    if (name == counter) return d;
  }
  return 0;
}

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), origin_ns_(steady_ns()) {}

void SpanRecorder::fold() {
  for (const obs::MetricSample& m : obs::registry().snapshot()) {
    if (m.type == obs::MetricType::kCounter) {
      totals_[m.name] += m.count;
    } else if (m.type == obs::MetricType::kHistogram) {
      totals_[m.name + ".count"] += m.count;
      totals_[m.name + ".sum"] += obs::histogram(m.name).sum();
    }
  }
  obs::registry().reset();
}

double SpanRecorder::now_us() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-3;
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, std::string name)
    : rec_(&rec), id_(rec.spans_.size()) {
  rec.fold();
  start_ = rec.totals_;
  Span s;
  s.name = std::move(name);
  s.parent = rec.open_.empty() ? -1 : rec.open_.back();
  s.start_us = rec.now_us();
  rec.spans_.push_back(std::move(s));
  rec.open_.push_back(static_cast<int>(id_));
}

SpanRecorder::Scope::~Scope() {
  Span& s = rec_->spans_[id_];
  s.end_us = rec_->now_us();
  rec_->fold();
  // A name missing from the start totals was registered inside the span.
  for (const auto& [name, total] : rec_->totals_) {
    const auto it = start_.find(name);
    const std::int64_t d = total - (it == start_.end() ? 0 : it->second);
    if (d != 0) s.deltas.emplace_back(name, d);
  }
  rec_->open_.pop_back();
}

double SpanRecorder::self_seconds(std::size_t i) const {
  double self = spans_[i].seconds();
  for (const Span& c : spans_) {
    if (c.parent == static_cast<int>(i)) self -= c.seconds();
  }
  return self;
}

obs::Json SpanRecorder::chrome_trace() const {
  obs::Json events = obs::Json::array();
  obs::Json meta = obs::Json::object();
  meta.set("name", "process_name")
      .set("ph", "M")
      .set("pid", 1)
      .set("tid", 1)
      .set("args", obs::Json::object().set("name", "routebench " + workload_));
  events.push(std::move(meta));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::Json args = obs::Json::object();
    args.set("workload", workload_)
        .set("parent", s.parent < 0
                           ? obs::Json(nullptr)
                           : obs::Json(spans_[static_cast<std::size_t>(
                                           s.parent)].name))
        .set("self_us", self_seconds(i) * 1e6);
    obs::Json counters = obs::Json::object();
    for (const auto& [name, d] : s.deltas) counters.set(name, d);
    args.set("counters", std::move(counters));
    obs::Json ev = obs::Json::object();
    ev.set("name", s.name)
        .set("cat", s.name.substr(0, s.name.find('.')))
        .set("ph", "X")
        .set("ts", s.start_us)
        .set("dur", s.end_us - s.start_us)
        .set("pid", 1)
        .set("tid", 1)
        .set("args", std::move(args));
    events.push(std::move(ev));
  }
  return events;
}

obs::Json SpanRecorder::summary() const {
  struct Row {
    int calls = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.calls;
    r.total += spans_[i].seconds();
    r.self += self_seconds(i);
  }
  obs::Json out = obs::Json::object();
  for (const auto& [name, r] : rows) {
    out.set(name, obs::Json::object()
                      .set("calls", r.calls)
                      .set("total_s", r.total)
                      .set("self_s", r.self));
  }
  return out;
}

}  // namespace routebench
