// The benchmark's own span recorder.  It times the public calls the traced
// run makes into each layer from outside them: each span has a name, start,
// end and parent, and carries the obs registry's counter deltas across it,
// so per-layer ratios (fast-grid hit ratio, commit ratio, ...) are measured
// where the work happens.  Spans stay in memory and are written once, as
// Chrome trace events that Perfetto opens.
//
// Every flow entry point resets the obs registry when it starts.  So at each
// span boundary the recorder folds the registry into its own running totals
// and resets it; a flow call recorded as a leaf span then loses nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.hpp"

namespace routebench {

/// Registry counter values (counters, and histogram counts and sums as
/// "<name>.count" / "<name>.sum"), sorted by name.
using CounterValues = std::vector<std::pair<std::string, std::int64_t>>;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    CounterValues deltas;  ///< nonzero counter changes across the span

    double seconds() const { return (end_us - start_us) * 1e-6; }
    std::int64_t delta(const std::string& counter) const;
  };

  /// Opens a span that closes when the scope is destroyed.  Spans nest by
  /// scope: a span opened inside another is its child.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class SpanRecorder;
    SpanRecorder* rec_;
    std::size_t id_;
    std::map<std::string, std::int64_t> start_;
  };

  /// Runs `fn` inside a span named `name` and returns the closed span.
  template <class Fn>
  Span record(std::string name, Fn&& fn) {
    std::size_t id = 0;
    {
      Scope scope(*this, std::move(name));
      id = scope.id_;
      fn();
    }
    return spans_[id];
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the durations of the span's direct children.
  double self_seconds(std::size_t i) const;

  /// Chrome trace-event document: one complete ("X") event per span, with
  /// the workload, parent, self time and counter deltas in its args.
  bonn::obs::Json chrome_trace() const;
  /// Per span name: calls, total and self seconds.
  bonn::obs::Json summary() const;

 private:
  double now_us() const;
  /// Adds the registry's values to totals_ and resets the registry.
  void fold();

  std::string workload_;
  std::map<std::string, std::int64_t> totals_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace routebench
